"""Routing and competition: categorical expert routing, endpoint
estimation, confidence-aware winner-take-all scoring, the masked WTA
loss, and the load-balancing regularizer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError, ShapeError
from .experts import decode, expert_bank, operator_grads
from .numcore import Workspace, mlp_gradients, mlp_layers, tape_rows


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def router_logits(model, tf, h, taped=True, ws=None):
    """Finite expert logits (B, K) of trunk features h with time features
    tf (B, 2F), its layers in workspace `ws` if given, and the tape (None
    unless `taped`), whose inputs[0] is the router input [tf, h]."""
    logits, tape = mlp_layers(model.router, np.concatenate([tf, h], axis=-1),
                              taped, ws)
    if not np.isfinite(logits).all():
        raise NumericError("router produced non-finite logits")
    return logits, tape


def route(model, tf, h, ws=None):
    """`router_logits` as categorical expert probabilities: (probs, tape),
    probs rows strictly positive and summing to 1."""
    logits, tape = router_logits(model, tf, h, True, ws)
    return softmax(logits), tape


def endpoint(x_t, t, v, out=None):
    """Linear extrapolation x_t + (1 - t) * v to t=1, into `out` if given,
    for a float flow time t or a (B, 1) column of them. `v` has the shape
    of x_t, or one leading axis more (one velocity per expert)."""
    return np.add(x_t, np.multiply(1.0 - t, v, out=out), out=out)


def wta_scores(mses, probs, cfg) -> np.ndarray:
    """Confidence-aware scores (B, K): the element-mean squared endpoint
    error of each expert minus beta*log(prob + wta_eps), with the weights
    of the training config `cfg`."""
    mses = np.asarray(mses, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if mses.shape != probs.shape:
        raise ShapeError(f"mse shape {mses.shape} != prob shape {probs.shape}")
    if (probs < 0).any():
        raise ContractViolation("routing probabilities must be nonnegative")
    return mses - cfg.beta * np.log(probs + cfg.wta_eps)


def select_winner(scores) -> np.ndarray:
    """Row-wise argmin of (B, K) scores with smallest-index tie-breaking."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] < 1:
        raise ContractViolation("need a (B, K) score array with K >= 1")
    if np.isnan(scores).any():
        raise NumericError("NaN score in winner selection")
    return scores.argmin(axis=1)


@dataclass
class WtaBatchInfo:
    """Per-batch routing diagnostics from a wta_loss evaluation."""

    winners: np.ndarray  # (B,) int
    scores: np.ndarray  # (B, K)
    probs: np.ndarray  # (B, K)
    endpoint_mses: np.ndarray  # (B, K)


def wta_loss(model, trunk, probs, router_tape, v_global, cfg, ws: Workspace,
             lam, scale: float = 1.0):
    """Masked winner-take-all term on a trunk pass and its routing, each
    row's score weighted by its entry of `lam` (B,), which is >= 0.

    Non-winning expert blocks get exactly zero gradient, and the global
    velocity `v_global` is a constant, so the head gets none. The decoder
    runs forward once on K blocks of the B rows, block k by expert k, and
    backward once on the B winner rows of that tape. `scale` weights every
    gradient this term adds to `ws.grad` and the returned trunk-feature
    gradient dh. A `router_tape` of None marks a constant gate, which
    takes no confidence-term backward. Returns (loss, dh, WtaBatchInfo).
    """
    b, sd = trunk.xt.shape
    z, proj_tape = mlp_layers(model.projector, trunk.h, True, ws)
    ops = model.operators()
    kk, dz = ops.shape[:2]
    # [z, A^k z] for every k from one product of z with the bank; one row
    # is tiled to K, since BLAS's one-row product rounds differently
    zz = z if b > 1 else np.tile(z, (kk, 1))
    az = np.dot(zz, expert_bank(ops)).reshape(len(zz), kk, dz)
    dec_in = ws["dec", (kk, b, 2 * dz)]
    dec_in[..., :dz] = z
    dec_in[..., dz:] = az.swapaxes(0, 1) if b > 1 else az.diagonal().T[:, None]
    resids, dec_tape = decode(model, dec_in.reshape(kk * b, -1),
                              np.arange(kk).repeat(b), True, ws)
    # endpoint errors (K, B, S*D): one estimate per expert's total velocity
    errs = np.add(v_global, resids.reshape(kk, b, sd),
                  out=ws["errs", (kk, b, sd)])
    errs = endpoint(trunk.xt, trunk.t[:, None], errs, out=errs)
    errs -= trunk.x1
    mses = (np.add.reduce(errs * errs, axis=2) / sd).T  # (B, K)
    scores = wta_scores(mses, probs, cfg)
    winners = select_winner(scores)
    rows = np.arange(b)
    win = winners * b + rows  # the winner rows of the K-stacked pass
    loss = float(np.add.reduce(lam * scores[rows, winners]) / b)

    # backward; per-sample weight of its winning score in the batch mean
    w = scale * lam / b
    derr = (2.0 / sd) * w[:, None] * errs.reshape(-1, sd).take(win, axis=0)
    dresid = (1.0 - trunk.t)[:, None] * derr
    win_tape = tape_rows(dec_tape, win)
    din = mlp_gradients(model.decoder, win_tape, dresid, ws.grad.decoder)
    dzs, d_ops = din[:, :dz].copy(), np.zeros_like(ops)
    # the experts that won a row; np.unique's first call takes about 10 ms
    live = sorted(set(winners.tolist()))
    for k in live:  # a loser's d_op is 0
        mine = np.flatnonzero(winners == k)
        da = din[mine, dz:]
        dzs[mine] += np.matmul(da, ops[k])
        np.matmul(da.T, z[mine], out=d_ops[k])  # dL/dA^k, k's rows only
    ds, dr = operator_grads(model.expert_pairs[:, 1], d_ops)
    ws.grad.expert_pairs[live] += np.stack([ds, dr], 1)[live]

    dh = mlp_gradients(model.projector, proj_tape, dzs, ws.grad.projector)

    # confidence term: only the winner's -beta*log(prob + eps) is live
    if router_tape is not None:
        p_win = probs[rows, winners]
        dprob_win = -cfg.beta * w / (p_win + cfg.wta_eps)
        coef = dprob_win * p_win
        onehot = np.zeros(probs.shape)
        onehot[rows, winners] = 1.0
        dlogits = coef[:, None] * (onehot - probs)
        drin = mlp_gradients(model.router, router_tape, dlogits,
                             ws.grad.router)
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
    b, kk = probs.shape
    pibar = np.maximum(np.add.reduce(probs, axis=0) / b, prob_floor)
    u = 1.0 / kk
    return float(np.add.reduce(u * (np.log(u) - np.log(pibar))))


def balance_loss_and_grads(model, probs, router_tape, cfg, ws: Workspace,
                           scale: float = 1.0) -> float:
    """Balance term of one routing pass, clamped at the training config's
    `prob_floor`: adds `scale` times its router gradient to `ws.grad`
    and returns the loss; with a `router_tape` of None (a constant gate)
    it adds nothing. It regularizes routing, not the representation, so
    nothing flows back to the router input."""
    loss = balance_loss(probs, cfg.prob_floor)
    if router_tape is None:
        return loss
    b, kk = probs.shape
    pibar = np.add.reduce(probs, axis=0) / b
    live = pibar > cfg.prob_floor
    dpibar = np.where(live, -(1.0 / kk) / np.maximum(pibar, cfg.prob_floor), 0.0)
    dprobs = scale * dpibar / b  # every row's, broadcast
    inner = np.add.reduce(dprobs * probs, axis=1, keepdims=True)
    dlogits = probs * (dprobs - inner)
    mlp_gradients(model.router, router_tape, dlogits, ws.grad.router, False)
    return loss
