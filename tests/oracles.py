"""Test-only oracles: a central-difference gradient check (two-point or
five-point), the operator bank built one expert at a time, each
objective term on its own trunk pass, the frozen training objective
whose value it differences, the global velocity field evaluated on its
own, the sampler's velocity as computed before its per-call time-feature
table, exact DMD from the SVD of the wide snapshot matrix, and batch
power spectra. `conftest` re-exports them."""

import warnings
from dataclasses import dataclass

import numpy as np

from prismflow.errors import ContractViolation, NumericError, ShapeError
from prismflow.experts import assemble_operator, decode_experts, expert_bank
from prismflow.flowpath import (cfm_loss, encode, interpolate_state,
                                time_features, trunk_forward)
from prismflow.numcore import Workspace, mlp_apply, mlp_gradients, mlp_layers
from prismflow.router import (balance_loss, balance_loss_and_grads, endpoint,
                              route, select_winner, wta_loss, wta_scores)
from prismflow.spectra import DmdSpectrum, _snapshots, check_dmd
from prismflow.trainer import TrainConfig, lambda_schedule, total_loss


def finite_difference_check(loss_and_grad_fn, params: dict, step: float = 1e-5,
                            blocks=None, points: int = 2) -> float:
    """Central-difference gradient oracle.

    `loss_and_grad_fn(params) -> (value, grads)` must be deterministic.
    Returns the max over checked entries of
    |analytic - central| / (|central| + 1e-12). `blocks` restricts the
    check to a subset of parameter names. `points` picks the stencil:
    2, (f(h) - f(-h)) / 2h; or 5, the fourth-order
    [(f(-2h) - f(2h)) + 8 (f(h) - f(-h))] / 12h (Fornberg, Math. Comp.
    51, 1988), each f taken as a difference from f(0) to keep its
    rounding small.
    """
    if points not in (2, 5):
        raise ContractViolation(f"no {points}-point stencil")
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

            def at(k):
                flat[i] = orig + k * step
                return loss_and_grad_fn(params)[0]

            if points == 2:
                central = (at(1) - at(-1)) / (2.0 * step)
            else:
                f = {k: at(k) - v0 for k in (-2, -1, 1, 2)}
                central = ((f[-2] - f[2]) + 8.0 * (f[1] - f[-1])) / (12.0 * step)
            flat[i] = orig
            rel = abs(gflat[i] - central) / (abs(central) + 1e-12)
            worst = max(worst, rel)
    return worst


def reference_operators(model) -> np.ndarray:
    """The (K, d_z, d_z) operator bank assembled one expert at a time, in
    expert order, as `PrismFlowModel.operators` built it before it took
    the whole stack in one `assemble_operator` call."""
    return np.stack([assemble_operator(s, r, model.cfg.delta)
                     for s, r in model.expert_pairs])


def cfm_alone(model, x0, x1, t):
    """The flow-matching term on its own trunk pass: (loss, grads), the
    gradients of the encoder and the head, keyed like model.params()."""
    ws = Workspace(model)
    trunk = trunk_forward(model, x0, x1, t, ws)
    loss, dh, _ = cfm_loss(model, trunk, ws)
    mlp_gradients(model.encoder, trunk.tape, dh, ws.grad.encoder, False)
    return loss, ws.grads


def wta_alone(model, x0, x1, t, cfg: TrainConfig, lam=None):
    """The WTA term on its own trunk pass, the router run at any K, each
    row weighted by `lam` (all 1 if None): (loss, grads, WtaBatchInfo)."""
    ws = Workspace(model)
    trunk = trunk_forward(model, x0, x1, t, ws)
    lam = np.ones(len(trunk.t)) if lam is None else np.asarray(lam, float)
    v_global, _ = mlp_layers(model.head, trunk.h)  # value only
    probs, router_tape = route(model, trunk.tf, trunk.h, ws)
    loss, dh, info = wta_loss(model, trunk, probs, router_tape, v_global,
                              cfg, ws, lam)
    mlp_gradients(model.encoder, trunk.tape, dh, ws.grad.encoder, False)
    return loss, ws.grads, info


def balance_alone(model, x0, x1, t, cfg: TrainConfig):
    """The balance term on its own trunk pass, the router run at any K:
    (loss, grads, probs), the gradients on the router body only."""
    ws = Workspace(model)
    trunk = trunk_forward(model, x0, x1, t, ws)
    probs, tape = route(model, trunk.tf, trunk.h, ws)
    loss = balance_loss_and_grads(model, probs, tape, cfg, ws)
    return loss, ws.grads, probs


class FrozenObjective:
    """The training objective's value as a function of the parameters
    alone, built from the forward primitives and independent of
    `total_loss`.

    What the analytic gradient treats as constant keeps its value at the
    parameters of construction: the winners, the global velocity inside
    the WTA endpoint (the head at the path points x_t), and the trunk
    features that feed the balance term.
    """

    def __init__(self, model, x0, x1, t, cfg: TrainConfig):
        self.model, self.cfg = model, cfg
        b = np.asarray(x0).shape[0]
        self.x0 = np.asarray(x0, dtype=np.float64).reshape(b, -1)
        self.x1 = np.asarray(x1, dtype=np.float64).reshape(b, -1)
        self.t = np.asarray(t, dtype=np.float64).reshape(b)
        self.xt = interpolate_state(self.x0, self.x1, self.t)
        self.tf = time_features(self.t, model.cfg.time_freqs)
        self.lam = lambda_schedule(cfg.lambda_kind, self.t)
        self.h0, _ = encode(model, self.xt, self.tf)
        self.v0, _ = mlp_apply(model.head, self.h0)
        self.winners = select_winner(self._scores(self.h0))

    def _scores(self, h):
        """WTA scores (B, K) on trunk features h, against the frozen
        global velocity."""
        model = self.model
        probs, _ = route(model, self.tf, h)
        z, _ = mlp_apply(model.projector, h)
        kk, b = model.n_experts, z.shape[0]
        resids = decode_experts(model, expert_bank(model.operators()),
                                np.tile(z, (kk, 1)),
                                np.repeat(np.arange(kk), b))
        resids = resids.reshape(kk, b, -1)
        errs = endpoint(self.xt, self.t[:, None], self.v0 + resids) - self.x1
        return wta_scores(np.mean(errs * errs, axis=2).T, probs, self.cfg)

    def wta(self) -> float:
        """The WTA term on the frozen winners."""
        h, _ = encode(self.model, self.xt, self.tf)
        scores = self._scores(h)
        return float(np.mean(self.lam * scores[np.arange(h.shape[0]),
                                               self.winners]))

    def total(self) -> float:
        """CFM + alpha_w * WTA + alpha_b * balance on the frozen features."""
        model, cfg = self.model, self.cfg
        h, _ = encode(model, self.xt, self.tf)
        v, _ = mlp_apply(model.head, h)
        resid = v - (self.x1 - self.x0)
        cfm = float(np.mean(resid * resid))
        probs, _ = route(model, self.tf, self.h0)
        bal = balance_loss(probs, cfg.prob_floor)
        return cfm + cfg.alpha_w * self.wta() + cfg.alpha_b * bal


def frozen_total_loss_fn(model, x0, x1, t, cfg: TrainConfig):
    """Closure for the finite-difference oracle: the frozen objective's
    value at the current parameters, and `total_loss`'s gradient at the
    parameters of construction."""
    frozen = FrozenObjective(model, x0, x1, t, cfg)
    _, grads, _, _ = total_loss(model, x0, x1, t, cfg)
    return lambda _params: (frozen.total(), grads)


def frozen_wta_loss_fn(model, x0, x1, t, cfg: TrainConfig):
    """As `frozen_total_loss_fn`, for the WTA term and `wta_alone`."""
    frozen = FrozenObjective(model, x0, x1, t, cfg)
    _, grads, _ = wta_alone(model, x0, x1, t, cfg, lam=frozen.lam)
    return lambda _params: (frozen.wta(), grads)


def global_velocity(model, x, t) -> np.ndarray:
    """Global transport field evaluated on a batch at flow times t (B,):
    (B, S, D)."""
    h, _ = encode(model, x, time_features(t, model.cfg.time_freqs))
    v, _ = mlp_apply(model.head, h)
    if not np.all(np.isfinite(v)):
        raise NumericError("global velocity produced non-finite values")
    return v.reshape(x.shape)


def _repeated_features(model, t, rows: int) -> np.ndarray:
    """Time features of one scalar t computed once and repeated: (rows, 2F)."""
    return time_features(t, model.cfg.time_freqs)[np.newaxis].repeat(rows,
                                                                     axis=0)


def reference_velocity(model, x, t, cfg, ops):
    """Total sampling velocity at scalar time t for a batch (B, S, D), as
    the sampler computed it before its per-call time-feature table: the
    encoder and the router each compute the time features of t, and every
    one of the K experts is masked in turn."""
    h, enc_tape = encode(model, x, _repeated_features(model, t, x.shape[0]))
    v, head_tape = mlp_apply(model.head, h)
    if cfg.gamma == 0.0:
        return v.reshape(x.shape), (enc_tape, head_tape)
    probs, _ = route(model, _repeated_features(model, t, h.shape[0]), h)
    winners = np.argmax(probs, axis=1)
    z, _ = mlp_apply(model.projector, h)
    resid = np.empty_like(v)
    for k in range(model.n_experts):
        mask = winners == k
        if mask.any():
            resid[mask] = decode_experts(model, expert_bank(ops), z[mask],
                                         winners[mask])
    total = v + cfg.gamma * resid
    return total.reshape(x.shape), (enc_tape, head_tape)


def reference_exact_dmd(batch, rank: int = 10, delay: int = 1) -> DmdSpectrum:
    """Exact DMD over all snapshot pairs of a batch of sequences, as
    `spectra.exact_dmd` computed it from the SVD of the wide (state,
    snapshots) matrix X.

    Stacks per-sequence one-step pairs into snapshot matrices, takes the
    thin SVD truncated to `rank` (reduced further below a 1e-10 singular
    value tolerance, with a warning), and reads off eig(U^T X' V S^-1).
    `delay` > 1 uses a delay-embedded state so oscillatory modes are
    recoverable from scalar channels.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3:
        raise ShapeError("expected (n, S, D) batch")
    check_dmd(batch.shape[1], rank, delay)
    x = _snapshots(batch, delay)
    try:
        u, sig, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    tol = 1e-10 * max(sig[0], 1.0) if sig.size else 0.0
    effective = int(np.sum(sig > tol))
    r_cap = min(rank, sig.size)
    if effective < r_cap:
        warnings.warn(f"DMD rank reduced from {r_cap} to {effective} "
                      f"(rank-deficient snapshots)", stacklevel=2)
    r = min(r_cap, effective)
    if r == 0:
        raise NumericError("snapshot matrix is numerically zero")
    # X is done with but for its first column; X' is built only now, so
    # the two are never held together
    first = x[:, 0].copy()
    del x
    y = _snapshots(batch, delay, lag=1)
    u, sig, v = u[:, :r], sig[:r], vt[:r].T
    atilde = u.T @ y @ v / sig
    eig, wvec = np.linalg.eig(atilde)
    order = np.lexsort((eig.imag, eig.real))
    eig = eig[order]
    wvec = wvec[:, order]
    # exact DMD modes, then amplitudes from the first snapshot column
    with np.errstate(divide="ignore", invalid="ignore"):
        modes = (y @ v / sig) @ wvec
    b, *_ = np.linalg.lstsq(modes, first, rcond=None)
    return DmdSpectrum(eigenvalues=eig, amplitudes=np.abs(b), rank=r)


@dataclass
class PowerSpectrum:
    power: np.ndarray  # (S//2 + 1, D), batch-averaged |DFT|^2 / S
    seq_len: int

    def band_fraction(self, bin_index: int, channel: int = 0) -> float:
        """Energy fraction of one frequency bin (conjugate bins folded in)."""
        w = _parseval_weights(self.seq_len)
        e = w * self.power[:, channel]
        return float(e[bin_index] / e.sum())


def power_spectrum(batch) -> PowerSpectrum:
    """Per-channel |DFT|^2 / S averaged over the batch.

    With these units, sum_k w_k * P_k = sum_s x_s^2 per window, where
    w_k doubles the interior bins of the half spectrum (Parseval).
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3:
        raise ShapeError("expected (n, S, D) batch")
    s = batch.shape[1]
    spec = np.abs(np.fft.rfft(batch, axis=1)) ** 2 / s
    return PowerSpectrum(power=spec.mean(axis=0), seq_len=s)


def _parseval_weights(s: int) -> np.ndarray:
    w = np.full(s // 2 + 1, 2.0)
    w[0] = 1.0
    if s % 2 == 0:
        w[-1] = 1.0
    return w
