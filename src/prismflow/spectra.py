"""Spectral diagnostics: exact dynamic mode decomposition and an
eigenvalue-cloud overlap score."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError, ShapeError


@dataclass
class DmdSpectrum:
    eigenvalues: np.ndarray  # complex
    amplitudes: np.ndarray  # real, per mode
    rank: int


def check_dmd(seq_len: int, rank: int, delay: int) -> None:
    """A ContractViolation unless DMD at this rank and delay can run on
    windows of seq_len steps."""
    if rank < 1 or delay < 1:
        raise ContractViolation(f"DMD needs rank >= 1 and delay >= 1, got "
                                f"rank={rank}, delay={delay}")
    if seq_len < delay + 2:  # at least one snapshot pair per window
        raise ContractViolation(f"need S >= delay+2, got S={seq_len}, "
                                f"delay={delay}")


def _snapshots(batch, delay, lag=0):
    """Snapshot matrix (delay*D, columns) of the delay-embedded states
    [x_j, ..., x_{j+delay-1}] of each window, for the start indices
    j = lag .. lag + S - delay - 2: lag 0 gives X, lag 1 gives X'."""
    n, s, d = batch.shape
    win = np.lib.stride_tricks.sliding_window_view(batch, delay, axis=1)
    states = win[:, lag:lag + s - delay - 1].swapaxes(2, 3)
    return states.reshape(-1, delay * d).T


def exact_dmd(batch, rank: int = 10, delay: int = 1) -> DmdSpectrum:
    """Exact DMD over all snapshot pairs of a batch of sequences.

    Stacks per-sequence one-step pairs into snapshot matrices X, X' and
    reads off eig(U^T X' V S^-1) from the thin SVD X = U S V^T, truncated
    to `rank` (reduced further below a 1e-10 singular value tolerance,
    with a warning). The SVD is taken of the tall X^T, which is
    (snapshots, state) and C-contiguous, so U and V come out swapped.
    X' is built once X is dropped, and X' V serves both U^T X' V and the
    modes. `delay` > 1 uses a delay-embedded state so oscillatory modes
    are recoverable from scalar channels.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3:
        raise ShapeError("expected (n, S, D) batch")
    check_dmd(batch.shape[1], rank, delay)
    xt = _snapshots(batch, delay).T
    try:
        v, sig, ut = np.linalg.svd(xt, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    tol = 1e-10 * max(sig[0], 1.0) if sig.size else 0.0
    effective = int(np.sum(sig > tol))
    r_cap = min(rank, sig.size)
    if effective < r_cap:
        warnings.warn(f"DMD rank reduced from {r_cap} to {effective} "
                      f"(rank-deficient snapshots)", stacklevel=2)
    r = min(r_cap, effective)
    if r == 0:
        raise NumericError("snapshot matrix is numerically zero")
    first = xt[0].copy()
    del xt
    yv = _snapshots(batch, delay, lag=1) @ v[:, :r]
    atilde = ut[:r] @ yv / sig[:r]
    eig, wvec = np.linalg.eig(atilde)
    order = np.lexsort((eig.imag, eig.real))
    eig = eig[order]
    wvec = wvec[:, order]
    # exact DMD modes, then amplitudes from the first snapshot column
    with np.errstate(divide="ignore", invalid="ignore"):
        modes = (yv / sig[:r]) @ wvec
    b, *_ = np.linalg.lstsq(modes, first, rcond=None)
    return DmdSpectrum(eigenvalues=eig, amplitudes=np.abs(b), rank=r)


def spectral_overlap(real: DmdSpectrum, gen: DmdSpectrum) -> float:
    """Symmetrized mean nearest-neighbor distance between the two
    eigenvalue clouds, mapped to (0, 1] via exp(-distance). 1 means
    identical sets."""
    a = np.asarray(real.eigenvalues)
    b = np.asarray(gen.eigenvalues)
    if a.size == 0 or b.size == 0:
        raise ContractViolation("spectra must be nonempty")
    dist = np.abs(a[:, None] - b[None, :])
    chamfer = 0.5 * (dist.min(axis=1).mean() + dist.min(axis=0).mean())
    return float(np.exp(-chamfer))
