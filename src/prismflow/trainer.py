"""Combined training objective, optimization loop, and checkpointing."""

from __future__ import annotations

import configparser
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigError, ContractViolation, NumericError,
                     check_int, check_real)
from .flowpath import cfm_loss, trunk_forward
from .model import ModelConfig, PrismFlowModel
from .numcore import (AdamState, RngStream, Workspace, adam_update,
                      mlp_gradients)
from .router import balance_loss_and_grads, route, wta_loss

LAMBDA_KINDS = ("constant", "linear-ramp", "late-gate")


@dataclass(frozen=True)
class TrainConfig:
    alpha_w: float = 1.0
    alpha_b: float = 0.005
    lambda_kind: str = "constant"
    epochs: int = 100
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    beta: float = 0.01
    wta_eps: float = 1e-8
    prob_floor: float = 1e-8
    divergence_guard: float = 1e6

    def __post_init__(self):
        for key in ("alpha_w", "alpha_b", "lr", "beta"):
            check_real(key, getattr(self, key), least=0)
        check_real("prob_floor", self.prob_floor)  # fit bounds it by 1/K
        check_real("wta_eps", self.wta_eps, above=0)
        # at 0 or below every loss would exceed the guard
        check_real("divergence_guard", self.divergence_guard, above=0)
        check_int("epochs", self.epochs, 0)
        check_int("batch_size", self.batch_size, 1)
        if self.lambda_kind not in LAMBDA_KINDS:
            raise ConfigError(f"unknown lambda schedule {self.lambda_kind!r}")


def lambda_schedule(kind: str, t):
    """Time weighting for the WTA term: constant 1, a linear ramp in t,
    or a hard gate that trains competition only on the late half of the
    path, where the interpolant already resembles the data."""
    t = np.asarray(t, dtype=np.float64)
    if kind == "constant":
        return np.ones(t.shape)
    if kind == "linear-ramp":
        return t.copy()
    if kind == "late-gate":
        return (t > 0.5).astype(np.float64)
    raise ConfigError(f"unknown lambda schedule {kind!r}")


def total_loss(model, x0, x1, t, cfg: TrainConfig, ws: Workspace = None):
    """Weighted sum of the three objectives with routed gradients.

    Routing: global head <- CFM only; trunk encoder <- CFM + WTA;
    projector/decoder/winning experts <- WTA; router <- WTA confidence
    term + balance. The trunk, head, router and projector run forward
    once, and the summed trunk-feature gradient goes through one encoder
    backward. With one expert the router does not run: its gate is the
    constant 1 and both of its gradients are exactly zero.
    Without a workspace it returns fresh arrays; `fit` passes its `ws`,
    whose arrays each call overwrites.
    Returns (value, grads, parts, wta_info).
    """
    if ws is None:
        ws = Workspace(model)
    trunk = trunk_forward(model, x0, x1, t, ws)
    lam = lambda_schedule(cfg.lambda_kind, trunk.t)
    ws.grads.flat.fill(0.0)

    c_val, dh, v_global = cfm_loss(model, trunk, ws)
    if model.n_experts == 1:  # the softmax of one logit is exactly 1
        probs, router_tape = np.ones((len(trunk.t), 1)), None
    else:
        probs, router_tape = route(model, trunk.tf, trunk.h, ws)
    w_val, w_dh, info = wta_loss(model, trunk, probs, router_tape, v_global,
                                 cfg, ws, lam, cfg.alpha_w)
    b_val = balance_loss_and_grads(model, probs, router_tape, cfg, ws,
                                   cfg.alpha_b)
    mlp_gradients(model.encoder, trunk.tape, dh + w_dh, ws.grad.encoder,
                  False)

    value = c_val + cfg.alpha_w * w_val + cfg.alpha_b * b_val
    parts = {"cfm": c_val, "wta": w_val, "bal": b_val}
    return value, ws.grads, parts, info


def train_step(model, opt: AdamState, x1_batch, rng: RngStream,
               cfg: TrainConfig, ws: Workspace = None):
    """One optimizer step: draw (x0, t), evaluate the objective, update."""
    gen = rng.generator()
    b = x1_batch.shape[0]
    x0 = gen.standard_normal(x1_batch.shape)
    t = gen.uniform(0.0, 1.0, size=b)
    value, grads, parts, info = total_loss(model, x0, x1_batch, t, cfg, ws)
    if not np.isfinite(value):
        worst = int(np.argmax(~np.isfinite(info.scores).all(axis=1)))
        raise NumericError(f"non-finite loss at sample index {worst}")
    if value > cfg.divergence_guard:
        raise NumericError(f"training diverged: loss {value:.3e} exceeds guard")
    if cfg.lr != 0.0:
        adam_update(opt, model.params(), grads)
        model.bump_versions()
    metrics = {"total": value, **parts,
               "usage": np.bincount(info.winners, minlength=model.n_experts)}
    return metrics


def fit(windows, model_cfg: ModelConfig, cfg: TrainConfig,
        norm_shift=None, norm_scale=None, log=None):
    """Train a model from scratch on an array of windows (n, S, D).

    Returns (model, rows), one dict per epoch. Deterministic given
    (configs, seed).
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[0] == 0:
        raise ContractViolation("fit expects a nonempty (n, S, D) window array")
    model_cfg = replace(model_cfg, seq_len=windows.shape[1],
                        channels=windows.shape[2])
    root = RngStream(cfg.seed)
    model = PrismFlowModel.init(model_cfg, root)
    # the balance term clamps each batch-mean probability at prob_floor; at
    # 1/K or above the clamp holds the least-used expert's, which is the one
    # the term exists to lift, and at 0 or below log(0) can be taken
    if not 0 < cfg.prob_floor < 1 / model.n_experts:
        raise ConfigError(f"prob_floor must be > 0 and < 1/n_experts = "
                          f"{1 / model.n_experts:g}, got {cfg.prob_floor}")
    # the confidence term's gradient scales by beta * w / (p_win + wta_eps)
    # with each row's weight w <= alpha_w; past float range it overflows
    if model.n_experts > 1 and not math.isfinite(
            float(cfg.beta) * float(cfg.alpha_w) / float(cfg.wta_eps)):
        raise ConfigError(f"beta * alpha_w / wta_eps must be a finite float "
                          f"with n_experts >= 2, got {cfg.beta} * "
                          f"{cfg.alpha_w} / {cfg.wta_eps}")
    # a row's confidence score -beta * log(p + wta_eps), p in [0, 1], is at
    # most beta * max(-log(wta_eps), log1p(wta_eps)) in size; B are summed
    b, eps = min(cfg.batch_size, len(windows)), float(cfg.wta_eps)
    conf = b * float(cfg.beta) * max(-math.log(eps), math.log1p(eps))
    if model.n_experts > 1 and not math.isfinite(conf):
        raise ConfigError(f"batch_size * beta * max(-log(wta_eps), log1p("
                          f"wta_eps)) must be a finite float with n_experts "
                          f">= 2, got {b}, {cfg.beta} and {cfg.wta_eps}")
    if norm_shift is not None:
        model.norm_shift = np.asarray(norm_shift, dtype=np.float64)
        model.norm_scale = np.asarray(norm_scale, dtype=np.float64)
    opt = AdamState.create(model.params(), lr=cfg.lr)
    ws = Workspace(model)

    n = windows.shape[0]
    rows = []
    step_id = 0
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        order = root.child(10_000 + epoch).generator().permutation(n)
        sums = {"cfm": 0.0, "wta": 0.0, "bal": 0.0}
        usage = np.zeros(model.n_experts, dtype=np.int64)
        nb = 0
        for start in range(0, n, cfg.batch_size):
            batch = windows[order[start:start + cfg.batch_size]]
            m = train_step(model, opt, batch,
                           root.child(1_000_000 + step_id), cfg, ws)
            step_id += 1
            nb += 1
            for key in sums:
                sums[key] += m[key]
            usage += m["usage"]
        row = {"epoch": epoch,
               "cfm": sums["cfm"] / nb, "wta": sums["wta"] / nb,
               "bal": sums["bal"] / nb,
               "usage": usage.tolist(),
               "wall_time": time.perf_counter() - tic}
        rows.append(row)
        if log is not None:
            frac = usage / max(usage.sum(), 1)
            log(f"epoch {epoch}: cfm={row['cfm']:.4f} wta={row['wta']:.4f} "
                f"bal={row['bal']:.4f} usage=" +
                "/".join(f"{f:.2f}" for f in frac))
    return model, rows


def load_config_file(path: str) -> dict:
    """Parse a key = value config file into a dict of string dicts, one
    per section, each value as written (no `%` interpolation) and
    [DEFAULT] a plain section; `cli` refuses all but [train] and [model]."""
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return {section: dict(parser[section]) for section in parser.sections()}
