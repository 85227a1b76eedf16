"""Generation: Euler integration of the global field with expert-informed
residual corrections, plus guidance-based conditional sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import save_csv_windows
from .errors import (ConfigError, ContractViolation, NumericError, ShapeError,
                     check_int, check_real, check_size)
from .experts import decode_experts, expert_bank
from .flowpath import encode, time_features
from .numcore import RngStream, mlp_gradients, mlp_layers, row_blocks
from .router import endpoint, router_logits

MODES = ("unconditional", "imputation", "forecasting")
BLOCK_ROWS = 256  # rows per sampling block: bounds memory, stays in L2


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 100
    gamma: float = 1.0  # residual correction strength
    eta_g: float = 1.0  # guidance strength for conditional modes
    mode: str = "unconditional"
    exact_guidance: bool = False  # backprop the endpoint map through the
    # global field instead of the identity approximation

    def __post_init__(self):
        check_int("steps", self.steps, 1)
        check_size("steps", self.steps)
        if self.mode not in MODES:
            raise ConfigError(f"unknown sampler mode {self.mode!r}")
        check_real("gamma", self.gamma)
        check_real("eta_g", self.eta_g, least=0)


@dataclass
class ConditionMask:
    """Observed-value constraint: boolean mask plus values where observed.

    Either per-window arrays of shape (n, S, D), one constraint for each
    of n generated windows, or one (S, D) constraint for one generated
    window. Its arrays can change after it is made, so a call that
    reads it checks it then (`validate`).
    """

    mask: np.ndarray  # (n, S, D) or (S, D) bool
    values: np.ndarray  # same shape, meaningful where mask is True

    def validate(self) -> None:
        mask, values = self.mask, self.values
        if mask.shape != values.shape or mask.ndim not in (2, 3):
            raise ContractViolation(
                f"mask shape {mask.shape} and values shape {values.shape} "
                f"must be equal, either (S, D) or (n, S, D)")
        windows = mask.reshape((-1,) + mask.shape[-2:])
        if windows.shape[0] == 0:
            raise ContractViolation("condition holds no windows")
        empty = np.flatnonzero(~windows.any(axis=(1, 2)))
        if empty.size:
            raise ContractViolation(f"condition mask of window {empty[0]} "
                                    f"is empty")
        if not np.all(np.isfinite(values[mask])):
            raise ContractViolation("observed values must be finite")


def step_time_features(model, steps: int, n: int) -> np.ndarray:
    """Time features of every Euler step's flow time i / steps for a batch
    of n windows, computed once per sampling call: a (steps, n, 2F) view
    of the (steps, 2F) table, row i repeated over the batch."""
    table = time_features(np.arange(steps) / steps, model.cfg.time_freqs)
    return np.broadcast_to(table[:, np.newaxis], (steps, n, table.shape[1]))


def _velocity(model, x, tf, cfg, bank, taped=False):
    """Total velocity (n, S*D) of states x (n, ...) at time features tf
    (n, 2F), each row decoded by its argmax expert in one call through the
    `expert_bank` view `bank`, with encoder and head tapes (None unless
    `taped`). The expert is the argmax of the logits, as of their softmax,
    which keeps their order; where rounding makes two different logits'
    probabilities equal, the larger logit, the exact winner, wins over a
    lower index."""
    h, enc_tape = encode(model, x, tf, taped)
    v, head_tape = mlp_layers(model.head, h, taped)
    if cfg.gamma != 0.0:
        logits, _ = router_logits(model, tf, h, taped=False)
        z, _ = mlp_layers(model.projector, h)
        resid = decode_experts(model, bank, z, logits.argmax(axis=1))
        v = v + cfg.gamma * resid
    return v, enc_tape, head_tape


def _global_vjp(model, enc_tape, head_tape, upstream):
    """u^T dv_global/dx for upstream u (B, S*D) on one velocity pass: the
    input gradient alone, through the model's head and encoder."""
    dh = mlp_gradients(model.head, head_tape, upstream)
    din = mlp_gradients(model.encoder, enc_tape, dh)
    return din[:, : upstream.shape[1]]


# A finite but huge gamma or eta_g may overflow a step's arithmetic: the
# state check after each step raises NumericError, with no numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def residual_velocity_step(model, x, tf, cfg: SamplerConfig, bank):
    """One Euler update x + (v_global + gamma*v_expert) * dt at the flow
    time whose time features are tf (B, 2F), with the dominant expert
    chosen per sample by argmax routing probability. gamma=0 reduces
    exactly to the plain Euler update. `bank` is the experts'
    `expert_bank`, made once by the caller; at gamma 0 it is not read."""
    x = np.asarray(x, dtype=np.float64)
    v = _velocity(model, x, tf, cfg, bank)[0].reshape(x.shape)
    xn = x + v * (1.0 / cfg.steps)
    if not np.isfinite(xn).all():
        raise NumericError("non-finite state after a sampler step")
    return xn


def generate(model, n: int, cfg: SamplerConfig, rng: RngStream) -> np.ndarray:
    """Draw n source samples and integrate the flow from t=0 to 1, in
    `row_blocks`. They give the whole batch's bits where every layer's
    output width is a multiple of 4: there OpenBLAS 0.3.31 rounds a row of
    a multi-row product independently of the other rows; at other widths
    the blocks agree to rounding."""
    check_int("n", n, 0)
    s, d = model.cfg.seq_len, model.cfg.channels
    check_size("n * seq_len * channels", n, s, d)
    x = rng.generator().standard_normal((n, s, d))
    if n == 0:
        return x
    bank = expert_bank(model.operators()) if cfg.gamma else None
    for rows in row_blocks(n, BLOCK_ROWS):
        b = rows.stop - rows.start
        block, xb = model.batch_view(b), x[rows]
        for tf in step_time_features(model, cfg.steps, b):
            xb = residual_velocity_step(block, xb, tf, cfg, bank)
        x[rows] = xb
    return x


@np.errstate(over="ignore", invalid="ignore")
def generate_conditional(model, cond: ConditionMask, cfg: SamplerConfig,
                         rng: RngStream) -> np.ndarray:
    """Conditional generation with endpoint-consistency guidance.

    Each Euler step steers the velocity by the (negative) gradient of the
    masked endpoint error ||m * (x_hat_1 - y)||^2, where x_hat_1 is the
    linear endpoint estimate; observed entries are clamped to y at the
    end. The endpoint sensitivity is approximated by the identity unless
    exact_guidance backpropagates through the global field.

    A per-window (n, S, D) condition generates its n windows as one
    batch (in `generate`'s blocks); an (S, D) condition generates one
    window. Window i starts from the noise of stream (rng.seed,
    rng.stream + i), so it matches a one-window call with that stream up
    to rounding.
    """
    if cfg.mode == "unconditional":
        raise ContractViolation("conditional generation needs a conditional mode")
    cond.validate()
    s, d = model.cfg.seq_len, model.cfg.channels
    if cond.mask.shape[-2:] != (s, d):
        raise ShapeError(f"condition windows are {cond.mask.shape[-2:]}, "
                         f"the model generates {(s, d)}")
    mask = cond.mask.reshape(-1, s * d)
    n = mask.shape[0]
    m2 = 2.0 * mask.astype(np.float64)
    y = np.where(mask, cond.values.reshape(-1, s * d), 0.0)
    x = np.empty((n, s * d))
    for i in range(n):
        x[i] = rng.child(rng.stream + i).generator().standard_normal(s * d)
    dt = 1.0 / cfg.steps
    bank = expert_bank(model.operators()) if cfg.gamma else None
    for rows in row_blocks(n, BLOCK_ROWS):
        b = rows.stop - rows.start
        block, xb, m2b, yb = model.batch_view(b), x[rows], m2[rows], y[rows]
        for i, tf in enumerate(step_time_features(model, cfg.steps, b)):
            t = i / cfg.steps
            v, enc_tape, head_tape = _velocity(block, xb, tf, cfg, bank,
                                               cfg.exact_guidance)
            g = m2b * (endpoint(xb, t, v) - yb)
            if cfg.exact_guidance:
                # add the global-field term of the endpoint Jacobian
                g = g + _global_vjp(block, enc_tape, head_tape,
                                    (1.0 - t) * g)
            xb = xb + (v - cfg.eta_g * g) * dt
            if not np.isfinite(xb).all():
                raise NumericError(f"non-finite state at guidance step {i}")
        x[rows] = xb
    return np.where(mask, y, x).reshape(n, s, d)


def export_samples(batch: np.ndarray, path: str, norm_shift=None,
                   norm_scale=None) -> None:
    """Write a generated batch as block CSV (windows separated by blank
    lines), denormalizing iff normalization stats are supplied."""
    batch = np.asarray(batch, dtype=np.float64)
    if norm_shift is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            batch = batch * np.asarray(norm_scale) + np.asarray(norm_shift)
        bad = ~np.isfinite(batch).all(axis=(1, 2))
        if bad.any():
            raise NumericError(f"denormalized window {np.argmax(bad)} leaves "
                               f"float range")
    save_csv_windows(batch, path)
