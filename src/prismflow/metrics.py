"""Desk-scale evaluation: discriminative, predictive, and correlational
scores for comparing a generated window set against real data."""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .numcore import (AdamState, Mlp, Params, RngStream, adam_update,
                      mlp_apply, mlp_gradients, mlp_shapes, row_blocks)

HIDDEN = 32
TRAIN_STEPS = 500
BATCH = 64
# rows per forward slice of a trained net: bounds the activations held at
# once, so scoring memory does not grow with the number of rows
FORWARD_ROWS = 4096


@dataclass
class MetricReport:
    name: str
    value: float
    seed: int
    config_hash: str = ""
    auxiliary: dict = field(default_factory=dict)

    @classmethod
    def build(cls, name, value, seed, config: dict):
        digest = hashlib.sha256(repr(sorted(config.items())).encode()).hexdigest()
        return cls(name, float(value), seed, digest[:12])


def _as_windows(ds):
    w = ds.windows if hasattr(ds, "windows") else np.asarray(ds)
    return np.asarray(w, dtype=np.float64)


# per metric: the trailing axes that real and generated windows share,
# and the least windows and steps that each side needs
WINDOW_RULES = {"disc": (2, 64, 1), "pred": (1, 1, 2), "corr": (1, 1, 1)}


def window_pair(real, gen, metric: str):
    """Both window sets as (n, S, D) arrays, or a ContractViolation unless
    `metric` can compare them; a shape mismatch names both shapes."""
    rw, gw = _as_windows(real), _as_windows(gen)
    tail, min_windows, min_steps = WINDOW_RULES[metric]
    if rw.shape[-tail:] != gw.shape[-tail:]:
        axes = "(S, D)" if tail == 2 else "D"
        raise ContractViolation(
            f"{metric} needs real and generated windows of equal {axes}, "
            f"got real (n, S, D) = {rw.shape} and generated {gw.shape}")
    if min(rw.shape[0], gw.shape[0]) < min_windows:
        raise ContractViolation(f"{metric} needs at least {min_windows} "
                                f"windows per side")
    if min(rw.shape[1], gw.shape[1]) < min_steps:
        raise ContractViolation(f"{metric} needs seq_len >= {min_steps}")
    return rw, gw


def _forward(net, x):
    """The trained net on every row of x, in the `row_blocks` of
    FORWARD_ROWS rows, into one output."""
    out = np.empty((x.shape[0], net.layer_dims[-1]))
    for rows in row_blocks(x.shape[0], FORWARD_ROWS):
        out[rows], _ = mlp_apply(net, x[rows])
    return out


def _train_net(dims, x, y, rng: RngStream, kind: str):
    """Fit a small MLP with Adam; kind is "logistic" or "l2"."""
    params = Params(mlp_shapes("", dims))
    net = Mlp.view(params, "", dims)
    net.draw(rng.child(1))
    opt = AdamState.create(params, lr=1e-3)
    gen = rng.child(2).generator()
    n = x.shape[0]
    grads = params.zeros_like()
    grad = Mlp.view(grads, "", dims)
    for _ in range(TRAIN_STEPS):
        idx = gen.integers(0, n, size=min(BATCH, n))
        out, tape = mlp_apply(net, x[idx])
        if kind == "logistic":
            p = 1.0 / (1.0 + np.exp(-out))
            upstream = (p - y[idx]) / idx.size
        else:
            upstream = 2.0 * (out - y[idx]) / out.size
        grads.flat.fill(0.0)
        mlp_gradients(net, tape, upstream, grad, False)
        adam_update(opt, params, grads)
        net.bump_version()
    return net


def discriminative_score(real, gen, rng: RngStream) -> float:
    """|test accuracy - 0.5| of a small classifier separating real from
    generated windows (80/20 split). 0 means indistinguishable."""
    rw, gw = window_pair(real, gen, "disc")
    x = np.concatenate([rw.reshape(rw.shape[0], -1),
                        gw.reshape(gw.shape[0], -1)])
    y = np.concatenate([np.ones((rw.shape[0], 1)), np.zeros((gw.shape[0], 1))])
    order = rng.child(0).generator().permutation(x.shape[0])
    x, y = x[order], y[order]
    split = int(0.8 * x.shape[0])
    net = _train_net([x.shape[1], HIDDEN, 1], x[:split], y[:split],
                     rng.child(10), "logistic")
    logits = _forward(net, x[split:])
    acc = float(np.mean((logits > 0) == (y[split:] > 0.5)))
    return abs(acc - 0.5)


def predictive_score(real, gen, rng: RngStream) -> float:
    """Train-on-synthetic test-on-real one-step-ahead MAE."""
    rw, gw = window_pair(real, gen, "pred")
    d = gw.shape[2]

    def pairs(w):
        return (w[:, :-1].reshape(-1, d), w[:, 1:].reshape(-1, d))

    net = _train_net([d, HIDDEN, d], *pairs(gw), rng.child(20), "l2")
    rx, ry = pairs(rw)
    pred = _forward(net, rx)
    return float(np.mean(np.abs(pred - ry)))


def _corr_matrix(w):
    """Lag-0 cross-channel correlations pooled over all timesteps; pairs
    touching a zero-variance channel are defined as 0."""
    flat = w.reshape(-1, w.shape[2])
    std = flat.std(axis=0)
    dead = std == 0.0
    if np.any(dead):
        warnings.warn("zero-variance channel: correlations set to 0",
                      stacklevel=2)
    safe = np.where(dead, 1.0, std)
    centered = (flat - flat.mean(axis=0)) / safe
    corr = centered.T @ centered / flat.shape[0]
    corr[dead, :] = 0.0
    corr[:, dead] = 0.0
    return corr


def correlational_score(real, gen) -> float:
    """Mean absolute difference of lag-0 cross-channel correlation
    matrices (strict upper triangle). 0 for D = 1."""
    rw, gw = window_pair(real, gen, "corr")
    d = rw.shape[2]
    if d < 2:
        return 0.0
    iu = np.triu_indices(d, k=1)
    diff = np.abs(_corr_matrix(rw)[iu] - _corr_matrix(gw)[iu])
    return float(diff.mean())
