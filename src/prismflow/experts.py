"""Koopman expert bank: stable operator assembly and its gradient,
operator spectra, and residual velocity decoding."""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError
from .numcore import mlp_layers


def assemble_operator(s: np.ndarray, r: np.ndarray, delta: float) -> np.ndarray:
    """Build the dissipative latent generator from unconstrained parameters:

        A = (S - S^T) - R^T R - delta*I

    for one (d, d) pair or a (K, d, d) stack of pairs, the whole bank in
    one expression. The symmetric part of A is -(R^T R) - delta*I, so its
    eigenvalues are at most -delta for any S, R.
    """
    s = np.asarray(s, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if s.ndim not in (2, 3) or s.shape[-1] != s.shape[-2]:
        raise ShapeError(f"S must be square, got {s.shape}")
    if r.shape != s.shape:
        raise ShapeError(f"R shape {r.shape} != S shape {s.shape}")
    return ((s - np.swapaxes(s, -1, -2)) - np.swapaxes(r, -1, -2) @ r
            - delta * np.eye(s.shape[-1]))


def operator_grads(r: np.ndarray, da: np.ndarray):
    """Chain dL/dA back to assemble_operator's raw parameters (or stacks):

    dS = G - G^T,  dR = -R (G + G^T)  for G = dL/dA.
    """
    dat = np.swapaxes(da, -1, -2)
    return da - dat, -r @ (da + dat)


def operator_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Full complex spectrum, sorted by real part then imaginary part."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"operator must be square, got {a.shape}")
    try:
        eig = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigen-solver failed: {exc}") from exc
    order = np.lexsort((eig.imag, eig.real))
    return eig[order]


def expert_bank(ops):
    """The (K, d_z, d_z) bank `ops` as [A_1^T ... A_K^T], one (d_z, K*d_z)
    view: one product of latent codes with it gives every expert's map."""
    return ops.reshape(-1, ops.shape[-1]).T


def decode_experts(model, bank, z, experts):
    """Residual velocities (n, S*D) of latent codes z (n, d_z), row i
    decoded by expert k = experts[i], through the `expert_bank` view of the
    operators that a sampling call makes once. Each row takes its own
    expert's block of the product of z with the bank, and the decoder runs
    once on concat(z, A^k z)."""
    az = np.dot(z, bank).reshape(len(z), -1, z.shape[1])
    return decode(model, np.concatenate(
        [z, az[np.arange(len(z)), experts]], axis=1), experts)[0]


def decode(model, zaz: np.ndarray, experts, taped: bool = False, ws=None):
    """The decoder on rows [z, A^k z] of experts k = experts[i], in the
    arrays of workspace `ws` if given: (residuals, tape or None)."""
    resid, dec_tape = mlp_layers(model.decoder, zaz, taped, ws)
    if not np.isfinite(resid).all():
        k = experts[np.argmin(np.isfinite(resid).all(axis=1))]
        raise NumericError(f"expert {k} produced non-finite residual velocity")
    return resid, dec_tape
