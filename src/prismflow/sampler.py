"""Generation: Euler integration of the global field with expert-informed
residual corrections, plus guidance-based conditional sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import save_csv_windows
from .errors import ConfigError, ContractViolation, NumericError
from .experts import decode_expert_velocity
from .flowpath import encode
from .numcore import RngStream, mlp_apply, mlp_gradients
from .router import route
from .trainer import lambda_schedule

MODES = ("unconditional", "imputation", "forecasting")


@dataclass
class SamplerConfig:
    steps: int = 100
    gamma: float = 1.0  # residual correction strength
    lambda_kind: str = "constant"
    eta_g: float = 1.0  # guidance strength for conditional modes
    mode: str = "unconditional"
    exact_guidance: bool = False  # backprop the endpoint map through the
    # global field instead of the identity approximation

    def validate(self) -> None:
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.mode not in MODES:
            raise ConfigError(f"unknown sampler mode {self.mode!r}")
        if self.eta_g < 0:
            raise ConfigError("eta_g must be >= 0")


@dataclass
class ConditionMask:
    """Observed-value constraint: boolean mask plus values where observed."""

    mask: np.ndarray  # (S, D) bool
    values: np.ndarray  # (S, D), meaningful where mask is True

    def validate(self) -> None:
        if self.mask.shape != self.values.shape:
            raise ContractViolation("mask and values shapes differ")
        if not self.mask.any():
            raise ContractViolation("condition mask is empty")
        if not np.all(np.isfinite(self.values[self.mask])):
            raise ContractViolation("observed values must be finite")


def _velocity(model, x, t, cfg: SamplerConfig):
    """Total sampling velocity at scalar time t for a batch (B, S, D)."""
    b = x.shape[0]
    tvec = np.full(b, t)
    h, enc_tape = encode(model, x, tvec)
    v, head_tape = mlp_apply(model.head, h)
    if cfg.gamma == 0.0:
        return v.reshape(x.shape), (h, enc_tape, head_tape)
    probs, _, _, _ = route(model, tvec, h)
    winners = np.argmax(probs, axis=1)
    z, _ = mlp_apply(model.projector, h)
    resid = np.empty_like(v)
    for k in range(model.n_experts):
        mask = winners == k
        if np.any(mask):
            resid[mask], _, _ = decode_expert_velocity(model, k, z[mask])
    lam = float(lambda_schedule(cfg.lambda_kind, t))
    total = v + cfg.gamma * lam * resid
    return total.reshape(x.shape), (h, enc_tape, head_tape)


def residual_velocity_step(model, x, t: float, cfg: SamplerConfig):
    """One Euler update x + (v_global + gamma*lambda_t*v_expert) * dt,
    with the dominant expert chosen per sample by argmax routing
    probability. gamma=0 reduces exactly to the plain Euler update."""
    cfg.validate()
    x = np.asarray(x, dtype=np.float64)
    dt = 1.0 / cfg.steps
    v, _ = _velocity(model, x, t, cfg)
    xn = x + v * dt
    if not np.all(np.isfinite(xn)):
        raise NumericError(f"non-finite state at t={t:.4f}")
    return xn


def generate(model, n: int, cfg: SamplerConfig, rng: RngStream) -> np.ndarray:
    """Draw n source samples and integrate the flow from t=0 to 1."""
    cfg.validate()
    s, d = model.cfg.seq_len, model.cfg.channels
    x = rng.generator().standard_normal((n, s, d))
    if n == 0:
        return x
    for i in range(cfg.steps):
        x = residual_velocity_step(model, x, i / cfg.steps, cfg)
    return x


def generate_conditional(model, cond: ConditionMask, cfg: SamplerConfig,
                         rng: RngStream, n: int = 1) -> np.ndarray:
    """Conditional generation with endpoint-consistency guidance.

    Each Euler step steers the velocity by the (negative) gradient of the
    masked endpoint error ||m * (x_hat_1 - y)||^2, where x_hat_1 is the
    linear endpoint estimate; observed entries are clamped to y at the
    end. The endpoint sensitivity is approximated by the identity unless
    exact_guidance backpropagates through the global field.
    """
    cfg.validate()
    if cfg.mode == "unconditional":
        raise ContractViolation("conditional generation needs a conditional mode")
    cond.validate()
    s, d = model.cfg.seq_len, model.cfg.channels
    m = cond.mask.astype(np.float64)[None]
    y = np.where(cond.mask, cond.values, 0.0)[None]
    x = rng.generator().standard_normal((n, s, d))
    dt = 1.0 / cfg.steps
    for i in range(cfg.steps):
        t = i / cfg.steps
        v, (h, enc_tape, head_tape) = _velocity(model, x, t, cfg)
        xhat = x + (1.0 - t) * v
        g = 2.0 * m * (xhat - y)
        if cfg.exact_guidance:
            # add the global-field term of the endpoint Jacobian
            upstream = (1.0 - t) * g.reshape(n, -1)
            _, _, dh = mlp_gradients(model.head, head_tape, upstream)
            _, _, din = mlp_gradients(model.encoder, enc_tape, dh)
            g = g + din[:, : s * d].reshape(n, s, d)
        x = x + (v - cfg.eta_g * g) * dt
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite state at guidance step {i}")
    return np.where(cond.mask[None], y, x)


def export_samples(batch: np.ndarray, path: str, norm_shift=None,
                   norm_scale=None) -> None:
    """Write a generated batch as block CSV (windows separated by blank
    lines), denormalizing iff normalization stats are supplied."""
    batch = np.asarray(batch, dtype=np.float64)
    if norm_shift is not None:
        batch = batch * np.asarray(norm_scale) + np.asarray(norm_shift)
    save_csv_windows(batch, path)
