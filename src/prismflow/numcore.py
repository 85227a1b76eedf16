"""Dense numerics core: MLPs with exact reverse-mode gradients, Adam,
counter-based RNG streams, and a finite-difference gradient oracle.

Everything is float64. Networks are plain numpy arrays; gradients are
derived by hand per loss rather than through a generic autodiff graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolation, NumericError, ShapeError

ACTIVATIONS = ("tanh", "softplus")


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    Identical keys reproduce identical draw sequences on every platform;
    distinct stream ids are statistically independent (Philox).
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

    def child(self, stream: int) -> "RngStream":
        return RngStream(self.seed, stream)


def _act(name, x):
    if name == "tanh":
        return np.tanh(x)
    if name == "softplus":
        # smooth relu; stable for large |x|
        return np.logaddexp(0.0, x)
    raise ConfigError(f"unknown activation {name!r}")


def _act_grad(name, pre, out):
    """Activation derivative at `pre`, where `out` is the activation."""
    if name == "tanh":
        return 1.0 - out * out
    if name == "softplus":
        return 1.0 / (1.0 + np.exp(-pre))
    raise ConfigError(f"unknown activation {name!r}")


@dataclass
class Tape:
    """Activation record from a forward pass, consumed by mlp_gradients."""

    inputs: list  # per-layer input activations, inputs[0] is the net input
    preacts: list  # pre-activation values per layer
    net_id: int
    net_version: int


@dataclass
class Mlp:
    """Fully connected network: hidden activation on all hidden layers,
    identity at the output. Weights are (fan_in, fan_out)."""

    layer_dims: list
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    activation: str = "tanh"
    version: int = 0

    @classmethod
    def init(cls, layer_dims, rng: RngStream, activation: str = "tanh") -> "Mlp":
        """Xavier-uniform weights, zero biases."""
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        gen = rng.generator()
        weights, biases = [], []
        for din, dout in zip(layer_dims[:-1], layer_dims[1:]):
            limit = np.sqrt(6.0 / (din + dout))
            weights.append(gen.uniform(-limit, limit, size=(din, dout)))
            biases.append(np.zeros(dout))
        return cls(list(layer_dims), weights, biases, activation)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def bump_version(self) -> None:
        self.version += 1


def mlp_blocks(prefix: str, weights, biases) -> dict:
    """Name an Mlp's per-layer arrays (or their gradients) in checkpoint
    order: {prefix}W0, {prefix}b0, {prefix}W1, ..."""
    out = {}
    for i, (w, b) in enumerate(zip(weights, biases)):
        out[f"{prefix}W{i}"] = w
        out[f"{prefix}b{i}"] = b
    return out


def mlp_apply(net: Mlp, x: np.ndarray):
    """Forward pass on a batch (B, d).

    Returns (output, tape); the tape suffices for exact reverse-mode
    gradients via mlp_gradients.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"input must be a (B, d) batch, got ndim={a.ndim}")
    if a.shape[1] != net.layer_dims[0]:
        raise ShapeError(
            f"input dim {a.shape[1]} != first layer dim {net.layer_dims[0]}"
        )
    inputs, preacts = [], []
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(a)
        pre = a @ w + b
        preacts.append(pre)
        a = pre if i == last else _act(net.activation, pre)
    return a, Tape(inputs, preacts, id(net), net.version)


def mlp_gradients(net: Mlp, tape: Tape, upstream: np.ndarray):
    """Exact reverse-mode gradients of <upstream, output> w.r.t. all
    parameters and the input.

    Returns (weight_grads, bias_grads, input_grad); the parameter
    gradients sum over the batch.
    """
    if tape.net_id != id(net) or tape.net_version != net.version:
        raise ContractViolation("tape is stale: network mutated since forward pass")
    delta = np.asarray(upstream, dtype=np.float64)
    if delta.shape != tape.preacts[-1].shape:
        raise ShapeError(
            f"upstream shape {delta.shape} != output shape {tape.preacts[-1].shape}"
        )
    wgrads = [None] * net.n_layers
    bgrads = [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        if i != net.n_layers - 1:
            delta = delta * _act_grad(net.activation, tape.preacts[i],
                                      tape.inputs[i + 1])
        wgrads[i] = tape.inputs[i].T @ delta
        bgrads[i] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
    return wgrads, bgrads, delta


def tape_rows(tape: Tape, rows) -> Tape:
    """The tape of the same forward pass restricted to some batch rows;
    mlp_gradients on it back-propagates those rows only."""
    return Tape([a[rows] for a in tape.inputs], [p[rows] for p in tape.preacts],
                tape.net_id, tape.net_version)


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer over a named parameter dict.

    Each moment lives in one flat float64 buffer; `m` and `v` name views
    of it, one per parameter block, in the order `create` saw them.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m_flat: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v_flat: np.ndarray = field(default_factory=lambda: np.zeros(0))
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    slices: dict = field(default_factory=dict)  # block name -> flat slice

    @classmethod
    def create(cls, params: dict, lr: float = 1e-3, beta1: float = 0.9,
               beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        size = sum(np.size(p) for p in params.values())
        state = cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                    m_flat=np.zeros(size), v_flat=np.zeros(size))
        start = 0
        for name, p in params.items():
            sl = slice(start, start + np.size(p))
            state.slices[name] = sl
            state.m[name] = state.m_flat[sl].reshape(np.shape(p))
            state.v[name] = state.v_flat[sl].reshape(np.shape(p))
            start = sl.stop
        return state


def adam_update(state: AdamState, params: dict, grads: dict) -> None:
    """One Adam step, in place on the arrays in `params`.

    The moment and step arithmetic runs once on the flat buffers; only
    the final parameter write is per block.
    """
    g = np.concatenate([np.ravel(grads[name]) for name in state.slices])
    if not np.all(np.isfinite(g)):
        bad = next(name for name, sl in state.slices.items()
                   if not np.all(np.isfinite(g[sl])))
        raise NumericError(f"non-finite gradient in block {bad!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    m, v = state.m_flat, state.v_flat
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    for name, p in params.items():
        p -= update[state.slices[name]].reshape(p.shape)


def finite_difference_check(loss_and_grad_fn, params: dict, step: float = 1e-5,
                            blocks=None) -> float:
    """Central-difference gradient oracle.

    `loss_and_grad_fn(params) -> (value, grads)` must be deterministic.
    Returns the max over checked entries of
    |analytic - central| / (|central| + 1e-12). `blocks` restricts the
    check to a subset of parameter names.
    """
    v0, grads = loss_and_grad_fn(params)
    v1, _ = loss_and_grad_fn(params)
    if v0 != v1:
        raise ContractViolation("loss function is not deterministic under fixed inputs")
    names = list(params) if blocks is None else list(blocks)
    worst = 0.0
    for name in names:
        p = params[name]
        flat = p.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus, _ = loss_and_grad_fn(params)
            flat[i] = orig - step
            minus, _ = loss_and_grad_fn(params)
            flat[i] = orig
            central = (plus - minus) / (2.0 * step)
            rel = abs(gflat[i] - central) / (abs(central) + 1e-12)
            worst = max(worst, rel)
    return worst
