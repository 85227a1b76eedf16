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
from .numcore import (AdamState, Params, RngStream, Workspace, adam_update,
                      mlp_gradients)
from .router import balance_loss_and_grads, route, wta_loss

# time weighting of the WTA term, by kind: constant 1, a linear ramp in
# the flow time t, or a hard gate that trains competition only on the
# late half of the path, where the interpolant already resembles the data
LAMBDAS = {
    "constant": lambda t: np.ones(t.shape),
    "linear-ramp": lambda t: t.copy(),
    "late-gate": lambda t: (t > 0.5).astype(np.float64),
}


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
        if self.lambda_kind not in LAMBDAS:
            raise ConfigError(f"unknown lambda schedule {self.lambda_kind!r}")


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
    lam = LAMBDAS[cfg.lambda_kind](trunk.t)
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


# as in sampling, an overflow the data decides ends in a NumericError
@np.errstate(over="ignore", invalid="ignore")
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
    metrics = {"total": value, **parts,
               "usage": np.bincount(info.winners, minlength=model.n_experts)}
    return metrics


def check_settings(cfg: TrainConfig, k: int, b: int) -> None:
    """Refuse, before the first step, settings with which the objective
    leaves float range on any data, at K experts and batches of b rows."""
    aw, beta, eps = map(float, (cfg.alpha_w, cfg.beta, cfg.wta_eps))
    # c_K = max |log(p + wta_eps)| over a row's p: 1 at K = 1, [0, 1] else
    c = math.log1p(eps) if k == 1 else max(-math.log(eps), math.log1p(eps))
    c_k = "log1p(wta_eps)" if k == 1 else "max(-log(wta_eps), log1p(wta_eps))"
    # prob_floor clamps the balance term's batch means; at 1/K or above it
    # holds the least-used one's, and outside (0, 1/K) NaN fails its rows
    floor = cfg.prob_floor if 0 < cfg.prob_floor < 1 / k else math.nan
    kind = f"a finite float with n_experts {'= 1' if k == 1 else '>= 2'}"
    table = (  # (applies, value, expression, what it must be, settings)
        (True, floor, "prob_floor", f"> 0 and < 1/n_experts = {1 / k:g}",
         cfg.prob_floor),
        # the confidence gradient's factor, as each row's weight <= alpha_w
        (k > 1, beta * aw / eps, "beta * alpha_w / wta_eps", kind,
         f"{cfg.beta} * {cfg.alpha_w} / {cfg.wta_eps}"),
        # b multiplies last, as b * beta can overflow where the sum does not
        (True, b * (beta * c), f"batch_size * beta * {c_k}", kind,
         f"{b}, {cfg.beta} and {cfg.wta_eps}"),
        (True, aw * (beta * c), f"alpha_w * beta * {c_k}", kind,
         f"{cfg.alpha_w}, {cfg.beta} and {cfg.wta_eps}"),
        (k > 1, float(cfg.alpha_b) * (math.log(k) - math.log(floor)),
         "alpha_b * (log(n_experts) - log(prob_floor))", kind,
         f"{cfg.alpha_b}, {k} and {cfg.prob_floor}"))
    for applies, value, expression, rule, settings in table:
        if applies and not math.isfinite(value):  # NaN fails, as inf does
            raise ConfigError(f"{expression} must be {rule}, got {settings}")


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
    check_settings(cfg, model_cfg.n_experts, min(cfg.batch_size, len(windows)))
    root = RngStream(cfg.seed)
    model = PrismFlowModel.init(model_cfg, root)
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
            try:
                m = train_step(model, opt, batch,
                               root.child(1_000_000 + step_id), cfg, ws)
            except NumericError as exc:  # Adam's count is the store's
                raise NumericError(f"epoch {epoch}, after {opt.step} update"
                                   f"{'s' * (opt.step != 1)}: {exc}") from exc
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
    # an update past float range leaves a parameter or its Adam v non-finite
    params = model.params()
    moment = Params({name: p.shape for name, p in params.items()}, opt.v)
    for what, store in (("block", params), ("Adam's v of block", moment)):
        if store.first_nonfinite() is not None:
            raise NumericError(f"training left {what} "
                               f"{store.first_nonfinite()!r} non-finite")
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
