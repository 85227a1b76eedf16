"""Conditional flow-matching primitives: time features, the trunk pass on
the path x_t = (1-t) x0 + t x1, and the CFM loss on its velocity x1 - x0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ShapeError
from .numcore import Tape, Workspace, mlp_gradients, mlp_layers

DEFAULT_TIME_FREQS = (1.0, 2.0, 4.0, 8.0)


def time_features(t, freqs) -> np.ndarray:
    """Fourier features [sin(2*pi*f*t), cos(2*pi*f*t)] per f of flow times
    t: (rows, 2F) for t (rows,), or (2F,) for one scalar t."""
    ang = 2.0 * np.pi * np.multiply.outer(np.asarray(t, dtype=np.float64),
                                          np.asarray(freqs))
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def encode(model, x, tf, taped=True, ws=None):
    """Shared trunk features h_t for a batch of states x (B, ...) with
    time features tf (B, 2F): the encoder on [flattened x, tf], unchecked,
    its layers in workspace `ws` if given. Returns (h, tape), the tape
    None unless `taped`."""
    x = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    return mlp_layers(model.encoder, np.concatenate([x, tf], axis=1), taped,
                      ws)


@dataclass
class Trunk:
    """One batch's shared trunk forward, with states flattened to (B, S*D).

    Every training objective reads it; the summed trunk-feature gradient
    goes back through the encoder once.
    """

    x0: np.ndarray  # source samples
    x1: np.ndarray  # data samples
    t: np.ndarray  # (B,) flow times
    tf: np.ndarray  # (B, 2F) their time features, read by encoder and router
    xt: np.ndarray  # path points (1 - t) * x0 + t * x1
    h: np.ndarray  # (B, hidden) trunk features
    tape: Tape  # encoder tape


def trunk_forward(model, x0, x1, t, ws: Workspace) -> Trunk:
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ShapeError(f"shape mismatch {x0.shape} vs {x1.shape}")
    b = x0.shape[0]
    if b == 0:
        raise ContractViolation("empty batch")
    x0, x1 = x0.reshape(b, -1), x1.reshape(b, -1)
    if x0.shape[1] != model.cfg.seq_len * model.cfg.channels:
        raise ShapeError(f"windows of {x0.shape[1]} values, the model's "
                         f"have {model.cfg.seq_len * model.cfg.channels}")
    t = np.asarray(t, dtype=np.float64).reshape(b)
    xt = (1.0 - t[:, None]) * x0 + t[:, None] * x1
    tf = time_features(t, model.cfg.time_freqs)
    h, tape = encode(model, xt, tf, True, ws)
    return Trunk(x0, x1, t, tf, xt, h, tape)


def cfm_loss(model, trunk: Trunk, ws: Workspace):
    """Flow-matching term on a trunk pass, the element-mean squared velocity
    error: adds the head gradient to `ws.grad` and returns (loss, dh, v)
    with dh the trunk-feature gradient and v the (B, S*D) global velocity."""
    u = trunk.x1 - trunk.x0
    v, head_tape = mlp_layers(model.head, trunk.h, True, ws)
    resid = v - u
    loss = float(np.add.reduce(resid * resid, axis=None) / resid.size)
    dv = 2.0 * resid / resid.size
    dh = mlp_gradients(model.head, head_tape, dv, ws.grad.head)
    return loss, dh, v
