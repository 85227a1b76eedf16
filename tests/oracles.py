"""Test-only oracles: a central-difference gradient check, the frozen
closure of the training objective it differentiates, and the global
velocity field evaluated on its own. `conftest` re-exports them."""

import numpy as np

from prismflow.errors import ContractViolation, NumericError
from prismflow.flowpath import encode, interpolate_state
from prismflow.numcore import mlp_apply
from prismflow.trainer import TrainConfig, total_loss


def finite_difference_check(loss_and_grad_fn, params: dict, step: float = 1e-5,
                            blocks=None) -> float:
    """Central-difference gradient oracle.

    `loss_and_grad_fn(params) -> (value, grads)` must be deterministic.
    Returns the max over checked entries of
    |analytic - central| / (|central| + 1e-12). `blocks` restricts the
    check to a subset of parameter names.
    """
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
            flat[i] = orig + step
            plus, _ = loss_and_grad_fn(params)
            flat[i] = orig - step
            minus, _ = loss_and_grad_fn(params)
            flat[i] = orig
            central = (plus - minus) / (2.0 * step)
            rel = abs(gflat[i] - central) / (abs(central) + 1e-12)
            worst = max(worst, rel)
    return worst


def frozen_total_loss_fn(model, x0, x1, t, cfg: TrainConfig):
    """Closure for the finite-difference oracle.

    Detached quantities (the global velocity inside the WTA endpoint,
    the winner assignment, and the trunk features feeding the balance
    term) are pinned at their current values so central differences see
    the same function the routed analytic gradient differentiates.
    """
    b = np.asarray(x0).shape[0]
    tt = np.asarray(t, dtype=np.float64).reshape(b)
    xt = interpolate_state(x0, x1, tt)
    h0, _ = encode(model, xt, tt)
    v0, _ = mlp_apply(model.head, h0)
    _, _, _, info = total_loss(model, x0, x1, tt, cfg)

    def fn(_params):
        value, grads, _, _ = total_loss(
            model, x0, x1, tt, cfg, winners=info.winners,
            frozen_v_global=v0, frozen_h_balance=h0)
        return value, grads

    return fn


def global_velocity(model, x, t) -> np.ndarray:
    """Global transport field evaluated on a batch: (B, S, D)."""
    h, _ = encode(model, x, t)
    v, _ = mlp_apply(model.head, h)
    if not np.all(np.isfinite(v)):
        raise NumericError("global velocity produced non-finite values")
    return v.reshape(x.shape)
