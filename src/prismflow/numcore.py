"""Dense numerics core: MLPs with exact reverse-mode gradients, Adam,
and counter-based RNG streams.

Everything is float64. Parameters live in one flat vector (`Params`);
gradients are derived by hand per loss, not by a generic autodiff graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, ContractViolation, NumericError, ShapeError,
                     check_int, shown)

# hidden activations by name: (activation, derivative), the derivative
# at hidden layer i of a tape, from its pre-activation tape.preacts[i] or
# its activation tape.inputs[i + 1]
ACTIVATIONS = {
    "tanh": (np.tanh,
             lambda tape, i: 1.0 - tape.inputs[i + 1] * tape.inputs[i + 1]),
    # smooth relu; stable for large |x|
    "softplus": (lambda x, out=None: np.logaddexp(0.0, x, out=out),
                 lambda tape, i: 1.0 / (1.0 + np.exp(-tape.preacts[i]))),
}


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    Identical keys reproduce identical draw sequences on every platform;
    distinct stream ids are statistically independent (Philox).
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        # each is one 64-bit Philox key word; in this range two's
        # complement maps distinct values to distinct words, while numpy
        # rounds a larger value through a float or fails to cast it
        for key in ("seed", "stream"):
            value = getattr(self, key)
            check_int(key, value)
            if not -2**63 <= value < 2**63:
                raise ConfigError(f"{key} must be in [-2**63, 2**63), "
                                  f"got {shown(value)}")

    def generator(self):
        key = np.array([self.seed, self.stream], np.int64).view(np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, stream: int) -> "RngStream":
        return RngStream(self.seed, stream)


def _activation(name):
    """The (activation, derivative) pair of ACTIVATIONS named `name`."""
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ConfigError(f"unknown activation {name!r}") from None


@dataclass(slots=True)
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
    def view(cls, params: "Params", prefix: str, layer_dims,
             activation: str = "tanh", rows: int = 1) -> "Mlp":
        """The net whose weights and biases are the blocks of `params`
        that `mlp_shapes(prefix, layer_dims)` names: views, not copies,
        each bias a (1, d) row, or for `rows` > 1 a (rows, d) copy: a bias
        of a batch's shape adds at about half the cost of a broadcast."""
        blocks = [params[name] for name in mlp_shapes(prefix, layer_dims)]
        return cls(list(layer_dims), blocks[::2],
                   [np.tile(b, (rows, 1)) if rows > 1 else b.reshape(1, -1)
                    for b in blocks[1::2]], activation)

    def draw(self, rng: RngStream) -> None:
        """Xavier-uniform weights in place (a fresh store's biases are 0)."""
        gen = rng.generator()
        for w in self.weights:
            limit = np.sqrt(6.0 / sum(w.shape))
            w[...] = gen.uniform(-limit, limit, size=w.shape)

    def bump_version(self) -> None:
        self.version += 1


def mlp_shapes(prefix: str, layer_dims) -> dict:
    """Block names and shapes of an Mlp with these layer widths, in
    checkpoint order: {prefix}W0, {prefix}b0, {prefix}W1, ..."""
    out = {}
    for i, (din, dout) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        out[f"{prefix}W{i}"], out[f"{prefix}b{i}"] = (din, dout), (dout,)
    return out


class Params(dict):
    """Named parameter blocks, each a view of one flat float64 vector
    `flat` (zeros unless given), laid out in the order of `shapes`."""

    def __init__(self, shapes: dict, flat: np.ndarray | None = None):
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        start = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self[name] = self.flat[start:start + size].reshape(shape)
            start += size

    def zeros_like(self) -> "Params":
        """A zeroed store of the same layout: one allocation."""
        return Params({name: p.shape for name, p in self.items()})

    def first_nonfinite(self) -> str | None:
        """Name of the first block that holds a nan or inf, or None."""
        return next((name for name, p in self.items()
                     if not np.isfinite(p).all()), None)


class Workspace(dict):
    """What each training objective evaluation overwrites, so a steady-state
    `fit` step allocates almost nothing: arrays `ws[key, shape]`, made on
    first use (one set per batch size), the gradient store `grads` and
    `grad`, the model whose nets and experts are views of it."""

    def __init__(self, model):
        super().__init__()
        self.grads = model.params().zeros_like()
        self.grad = type(model)(model.cfg, self.grads)

    def __missing__(self, key_shape) -> np.ndarray:
        return self.setdefault(key_shape, np.empty(key_shape[1]))


def mlp_layers(net: Mlp, a: np.ndarray, taped: bool = False, ws=None):
    """Every forward pass's layer loop, unchecked: (output, tape or None).
    Untaped, activations overwrite pre-activations and no layer is kept."""
    act = _activation(net.activation)[0]
    tape = Tape([], [], id(net), net.version) if taped else None
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if ws is None:
            pre, post = np.dot(a, w), None
        else:  # the layer's pre-activation and activation arrays
            pre, post = ws[(id(net), i), (2, a.shape[0], w.shape[1])]
            np.dot(a, w, pre)
        pre += b
        if taped:
            tape.inputs.append(a)
            tape.preacts.append(pre)
        a = pre if i == last else act(pre, post if taped else pre)
    return a, tape


def row_blocks(n: int, size: int):
    """Slices of 0..n in order, of `size` rows but the last, which takes a
    lone last row too: a 1-row product takes BLAS's matrix-vector path and
    can differ in the last bit from the same row of a multi-row product.
    Rows of multi-row products agree bitwise only at output widths that
    are multiples of 4 (OpenBLAS 0.3.31); elsewhere, to rounding."""
    starts = range(0, max(n - 1, 1), size)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


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
    return mlp_layers(net, a, taped=True)


def mlp_gradients(net: Mlp, tape: Tape, upstream: np.ndarray,
                  grad: Mlp | None = None, with_input: bool = True):
    """Exact reverse-mode gradients of <upstream, output>: adds each
    layer's parameter gradient, summed over the batch, into `grad` (the
    net's layout over a gradient store) if given, and returns the input
    gradient, or None unless `with_input`."""
    if tape.net_id != id(net) or tape.net_version != net.version:
        raise ContractViolation("tape is stale: network mutated since forward pass")
    delta = np.asarray(upstream, dtype=np.float64)
    if delta.shape != tape.preacts[-1].shape:
        raise ShapeError(
            f"upstream shape {delta.shape} != output shape {tape.preacts[-1].shape}"
        )
    act_grad = _activation(net.activation)[1]
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            # delta is a product of this backward, never the caller's array
            delta *= act_grad(tape, i)
        if grad is not None:
            grad.weights[i] += np.dot(tape.inputs[i].T, delta)
            grad.biases[i] += np.add.reduce(delta, axis=0)
        if i or with_input:
            delta = np.dot(delta, net.weights[i].T)
    return delta if with_input else None


def tape_rows(tape: Tape, rows) -> Tape:
    """The tape of the same forward pass restricted to some batch rows;
    mlp_gradients on it back-propagates those rows only."""
    return Tape([a[rows] for a in tape.inputs], [p[rows] for p in tape.preacts],
                tape.net_id, tape.net_version)


@dataclass
class AdamState:
    """Bias-corrected Adam over one flat vector, with flat moments m, v."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    m: np.ndarray
    v: np.ndarray
    work: np.ndarray  # (2, size) scratch for adam_update's temporaries
    lr: float
    step: int = 0

    @classmethod
    def create(cls, params: Params, lr: float = 1e-3) -> "AdamState":
        size = params.flat.size
        return cls(np.zeros(size), np.zeros(size), np.empty((2, size)), lr)


def adam_update(state: AdamState, params: Params, grads: Params) -> None:
    """One Adam step, in place on `params.flat`, from `grads.flat`."""
    g = grads.flat
    if not np.isfinite(g).all():
        raise NumericError(f"non-finite gradient in block "
                           f"{grads.first_nonfinite()!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.BETA1 ** t
    bc2 = 1.0 - state.BETA2 ** t
    # lr * (m / bc1) / (sqrt(v / bc2) + eps): its operands, order and bits
    m, v, (tmp, denom) = state.m, state.v, state.work
    m *= state.BETA1
    m += np.multiply(g, 1.0 - state.BETA1, out=tmp)
    v *= state.BETA2
    v += np.multiply(np.multiply(g, 1.0 - state.BETA2, out=tmp), g, out=tmp)
    np.multiply(np.divide(m, bc1, out=tmp), state.lr, out=tmp)
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += state.EPS
    params.flat -= np.divide(tmp, denom, out=tmp)
