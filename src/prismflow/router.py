"""Routing and competition: categorical expert routing, endpoint
estimation, confidence-aware winner-take-all scoring, the masked WTA
loss, and the load-balancing regularizer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError, ShapeError
from .experts import decode_experts, operator_grads
from .flowpath import encoder_backward, trunk_forward
from .numcore import (Params, mlp_gradients, mlp_layers, mlp_param_gradients,
                      tape_rows)


def softmax(logits: np.ndarray) -> np.ndarray:
    if not np.isfinite(logits).all():
        raise NumericError("router produced non-finite logits")
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def route(model, tf, h, taped=True):
    """Categorical expert probabilities for a batch of trunk features h
    with time features tf (B, 2F).

    Returns (probs, tape); probs rows are strictly positive and sum to 1,
    and tape.inputs[0] is the router input [tf, h]. The tape is None
    unless `taped`.
    """
    logits, tape = mlp_layers(model.router, np.concatenate([tf, h], axis=-1),
                              taped)
    return softmax(logits), tape


def estimate_endpoint(x_t, t, v):
    """Linear extrapolation to t=1 along the constant-velocity path:
    x_t + (1 - t) * v, for flow times t (B,) or one scalar t. `v` has the
    shape of x_t, or one leading axis more (one velocity per expert)."""
    x_t = np.asarray(x_t, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.shape[v.ndim - x_t.ndim:] != x_t.shape or v.ndim > x_t.ndim + 1:
        raise ShapeError("velocity shape does not match state shape")
    t = np.asarray(t, dtype=np.float64)  # one t: float arithmetic, same bits
    t = t.reshape((-1,) + (1,) * (x_t.ndim - 1)) if t.ndim else float(t)
    return x_t + (1.0 - t) * v


def wta_scores(mses, probs, cfg) -> np.ndarray:
    """Confidence-aware scores (B, K): the element-mean squared endpoint
    error of each expert minus beta*log(prob + wta_eps), with the weights
    of the training config `cfg`."""
    mses = np.asarray(mses, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if mses.shape != probs.shape:
        raise ShapeError(f"mse shape {mses.shape} != prob shape {probs.shape}")
    if np.any(probs < 0):
        raise ContractViolation("routing probabilities must be nonnegative")
    return mses - cfg.beta * np.log(probs + cfg.wta_eps)


def select_winner(scores) -> np.ndarray:
    """Row-wise argmin of (B, K) scores with smallest-index tie-breaking."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] < 1:
        raise ContractViolation("need a (B, K) score array with K >= 1")
    if np.any(np.isnan(scores)):
        raise NumericError("NaN score in winner selection")
    return np.argmin(scores, axis=1)


@dataclass
class WtaBatchInfo:
    """Per-batch routing diagnostics from a wta_loss evaluation."""

    winners: np.ndarray  # (B,) int
    scores: np.ndarray  # (B, K)
    probs: np.ndarray  # (B, K)
    endpoint_mses: np.ndarray  # (B, K)


def wta_loss(model, x0, x1, t, cfg, lam=None):
    """Masked winner-take-all loss over a batch, with exact gradients.

    Gradient routing: the winning expert's (S, R), the shared projector
    and decoder, and the router (through the confidence term only)
    receive gradients; non-winning expert blocks get exactly zero. The
    global velocity inside the endpoint estimate is computed from the
    current head and treated as a constant, so the global head gets no
    WTA gradient.

    Returns (loss, grads, WtaBatchInfo). `cfg` is the training config.
    """
    cfg.validate()
    trunk = trunk_forward(model, x0, x1, t)
    v_global, _ = mlp_layers(model.head, trunk.h)  # value only
    probs, router_tape = route(model, trunk.tf, trunk.h)
    grads = model.zero_grads()
    loss, dh, info = wta_core(model, trunk, probs, router_tape, v_global,
                              cfg, grads, lam=lam)
    encoder_backward(model, trunk, dh, grads)
    return loss, grads, info


def wta_core(model, trunk, probs, router_tape, v_global, cfg, grads: Params,
             lam=None, scale: float = 1.0):
    """Winner-take-all term on a trunk pass and its routing.

    The decoder runs forward once on K blocks of the B rows, block k by
    expert k, and backward once on the B winner rows of that tape. `scale`
    weights every gradient this term adds to `grads` and the returned
    trunk-feature gradient dh. The caller has validated the training
    config `cfg`. Returns (loss, dh, WtaBatchInfo).
    """
    b, sd = trunk.xt.shape
    t = trunk.t
    lam = np.ones(b) if lam is None else np.asarray(lam, dtype=np.float64)
    if np.any(lam < 0):
        raise ContractViolation("lambda weights must be >= 0")
    v_g = np.asarray(v_global, dtype=np.float64).reshape(b, sd)

    z, proj_tape = mlp_layers(model.projector, trunk.h, taped=True)
    ops = model.operators()
    resids, dec_tape = decode_experts(model, ops, np.tile(z, (len(ops), 1)),
                                      np.repeat(np.arange(len(ops)), b), True)
    resids = resids.reshape(len(ops), b, sd)
    # endpoint errors (K, B, S*D): one estimate per expert's total velocity
    errs = estimate_endpoint(trunk.xt, t, v_g + resids) - trunk.x1
    mses = np.mean(errs * errs, axis=2).T  # (B, K)
    scores = wta_scores(mses, probs, cfg)
    winners = select_winner(scores)
    rows = np.arange(b)
    loss = float(np.mean(lam * scores[rows, winners]))

    # backward; per-sample weight of its winning score in the batch mean
    w = scale * lam / b
    derr = (2.0 / sd) * w[:, None] * errs[winners, rows]
    dresid = (1.0 - t)[:, None] * derr
    win_tape = tape_rows(dec_tape, winners * b + rows)
    dw, db, din = mlp_gradients(model.decoder, win_tape, dresid)
    grads.add_mlp("decoder.", dw, db)
    dz = din[:, : model.cfg.latent_dim].copy()
    da = din[:, model.cfg.latent_dim:]
    for k, a in enumerate(ops):
        mine = np.flatnonzero(winners == k)
        if mine.size == 0:
            continue  # masked expert: exactly zero gradient
        dz[mine] += da[mine] @ a
        d_op = da[mine].T @ z[mine]  # dL/dA^k from expert k's rows only
        ds, dr = operator_grads(model.expert_r[k], d_op)
        grads[f"expert{k}.S"] += ds
        grads[f"expert{k}.R"] += dr

    pw, pb, dh = mlp_gradients(model.projector, proj_tape, dz)
    grads.add_mlp("projector.", pw, pb)

    # confidence term: only the winner's -beta*log(prob + eps) is live
    p_win = probs[rows, winners]
    dprob_win = -cfg.beta * w / (p_win + cfg.wta_eps)
    coef = dprob_win * p_win
    onehot = np.zeros_like(probs)
    onehot[rows, winners] = 1.0
    dlogits = coef[:, None] * (onehot - probs)
    rw, rb, drin = mlp_gradients(model.router, router_tape, dlogits)
    grads.add_mlp("router.", rw, rb)
    dh += drin[:, 2 * len(model.cfg.time_freqs):]

    info = WtaBatchInfo(winners=winners, scores=scores, probs=probs,
                        endpoint_mses=mses)
    return loss, dh, info


def balance_loss(probs, prob_floor: float = 1e-8) -> float:
    """KL(uniform || batch-mean routing distribution), clamped below.

    Zero iff the batch-average routing is uniform (up to the clamp).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] < 1:
        raise ContractViolation("balance_loss expects a (B, K) batch of simplices")
    kk = probs.shape[1]
    pibar = np.maximum(probs.mean(axis=0), prob_floor)
    u = 1.0 / kk
    return float(np.sum(u * (np.log(u) - np.log(pibar))))


def balance_loss_and_grads(model, x0, x1, t, cfg):
    """Balance regularizer with gradients to the router body only.

    The trunk features feeding the router are treated as constants here;
    the balance term regularizes routing, not the representation.
    """
    trunk = trunk_forward(model, x0, x1, t)
    probs, tape = route(model, trunk.tf, trunk.h)
    grads = model.zero_grads()
    loss = balance_core(model, probs, tape, cfg, grads)
    return loss, grads, probs


def balance_core(model, probs, router_tape, cfg, grads: Params,
                 scale: float = 1.0) -> float:
    """Balance term of one routing pass, clamped at the training config's
    `prob_floor`: adds `scale` times its router gradient to `grads` and
    returns the loss. Nothing flows back to the router input."""
    loss = balance_loss(probs, cfg.prob_floor)
    b, kk = probs.shape
    pibar = probs.mean(axis=0)
    live = pibar > cfg.prob_floor
    dpibar = np.where(live, -(1.0 / kk) / np.maximum(pibar, cfg.prob_floor), 0.0)
    dprobs = np.tile(scale * dpibar / b, (b, 1))
    inner = (dprobs * probs).sum(axis=1, keepdims=True)
    dlogits = probs * (dprobs - inner)
    rw, rb = mlp_param_gradients(model.router, router_tape, dlogits)
    grads.add_mlp("router.", rw, rb)
    return loss
