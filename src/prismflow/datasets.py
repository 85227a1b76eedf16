"""Synthetic generators, CSV ingestion, normalization, and windowing.

CSV contract: UTF-8, comma-separated, first row = channel names, one
timestep per row. Multi-window files separate windows with a blank line
("blocks" mode); alternatively a single long record is cut into sliding
windows ("sliding" mode).
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write_text
from .errors import ConfigError, ContractViolation, ParseError
from .numcore import RngStream


@dataclass
class Dataset:
    windows: np.ndarray  # (n, S, D)
    norm_shift: np.ndarray | None = None  # per-channel, set by normalize()
    norm_scale: np.ndarray | None = None
    provenance: str = "unknown"
    labels: np.ndarray | None = None  # regime labels where the generator has them

    @property
    def n(self):
        return self.windows.shape[0]

    @property
    def seq_len(self):
        return self.windows.shape[1]

    @property
    def channels(self):
        return self.windows.shape[2]


def gen_sines(n, seq_len, channels, freq_range=(0.0, 1.0),
              phase_range=(-np.pi, np.pi), rng: RngStream = RngStream(0)):
    """Sines protocol: channel i of each window is
    sin(2*pi*eta*s/seq_len + theta) with eta ~ U(freq_range),
    theta ~ U(phase_range) drawn per window and channel."""
    if n < 1:
        raise ConfigError("need n >= 1 windows")
    if freq_range[0] > freq_range[1] or phase_range[0] > phase_range[1]:
        raise ConfigError("invalid range: low > high")
    gen = rng.generator()
    eta = gen.uniform(*freq_range, size=(n, 1, channels))
    theta = gen.uniform(*phase_range, size=(n, 1, channels))
    s = np.arange(seq_len).reshape(1, seq_len, 1)
    windows = np.sin(2.0 * np.pi * eta * s / seq_len + theta)
    return Dataset(windows, provenance=f"sines(n={n},S={seq_len},D={channels})")


def gen_bimodal_frequency(n, seq_len, channels, f_low, f_high,
                          rng: RngStream = RngStream(0)):
    """Two-regime stress set: each window is a pure sinusoid at f_low or
    f_high cycles per window (equal probability), random phase. Regime
    labels are kept on the dataset."""
    if f_low == f_high:
        raise ConfigError("f_low and f_high must differ")
    for f in (f_low, f_high):
        if not 0 < f < seq_len / 2:
            raise ConfigError(f"frequency {f} aliased for seq_len {seq_len}")
    gen = rng.generator()
    labels = gen.integers(0, 2, size=n)
    freqs = np.where(labels == 0, f_low, f_high).reshape(n, 1, 1)
    theta = gen.uniform(-np.pi, np.pi, size=(n, 1, channels))
    s = np.arange(seq_len).reshape(1, seq_len, 1)
    windows = np.sin(2.0 * np.pi * freqs * s / seq_len + theta)
    return Dataset(windows, labels=labels,
                   provenance=f"bimodal(f={f_low}/{f_high},S={seq_len})")


@dataclass
class DiagnosticSpec:
    """Two-mode velocity diagnostic: the target velocity is exactly
    +separation or -separation on every element, by mixture weight."""

    separation: float = 2.0
    weights: tuple = (0.5, 0.5)
    n: int = 5000
    seq_len: int = 16
    channels: int = 1

    def validate(self):
        if (len(self.weights) != 2 or abs(sum(self.weights) - 1.0) > 1e-12
                or not all(0.0 <= w <= 1.0 for w in self.weights)):
            raise ConfigError("weights must be a 2-way simplex")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")


def gen_velocity_mixture_diagnostic(spec: DiagnosticSpec,
                                    rng: RngStream = RngStream(0)):
    """Paired (x0, x1) draws whose target velocity x1 - x0 is a two-mode
    distribution (+c or -c on all elements) at every intermediate state.
    Returns (x0, x1, signs)."""
    spec.validate()
    gen = rng.generator()
    x0 = gen.standard_normal((spec.n, spec.seq_len, spec.channels))
    signs = np.where(gen.uniform(size=spec.n) < spec.weights[0], 1.0, -1.0)
    x1 = x0 + signs[:, None, None] * spec.separation
    return x0, x1, signs


def velocity_energy_gap(x0, x1):
    """Element-mean velocity statistics: (mean ||u||^2, ||mean u||^2).

    The gap between the two is the energy a conditional-mean estimator
    would lose on this data."""
    u = (np.asarray(x1) - np.asarray(x0)).reshape(x0.shape[0], -1)
    mean_sq = float(np.mean(u * u))
    sq_mean = float(np.mean(u.mean(axis=0) ** 2))
    return mean_sq, sq_mean


def _parse_rows(text: str, path: str):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    channels = [name.strip() for name in header]
    blocks, current = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            if current:
                blocks.append(current)
                current = []
            continue
        if len(row) != len(channels):
            raise ParseError(f"{path}:{lineno}: expected {len(channels)} "
                             f"cells, got {len(row)}")
        vals = []
        for col, cell in enumerate(row, start=1):
            try:
                vals.append(float(cell))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: column {col}: "
                                 f"non-numeric cell {cell!r}") from None
        current.append(vals)
    if current:
        blocks.append(current)
    return channels, blocks


def load_csv_windows(path, seq_len=None, stride=1, mode="sliding"):
    """Load a CSV into fixed-length windows.

    mode="sliding": the file is one record, cut into windows of length
    seq_len at the given stride. mode="blocks": blank-line-separated
    blocks are taken as whole windows (seq_len optional check).
    """
    if not os.path.exists(path):
        raise ContractViolation(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    channels, blocks = _parse_rows(text, path)
    if mode == "blocks":
        if not blocks:
            arr = np.zeros((0, seq_len or 0, len(channels)))
            return Dataset(arr, provenance=path)
        lengths = {len(b) for b in blocks}
        if len(lengths) != 1:
            raise ParseError(f"{path}: blocks have mixed lengths {sorted(lengths)}")
        if seq_len is not None and lengths != {seq_len}:
            raise ContractViolation(
                f"{path}: blocks have length {lengths.pop()}, expected {seq_len}")
        return Dataset(np.asarray(blocks, dtype=np.float64), provenance=path)
    if mode != "sliding":
        raise ConfigError(f"unknown load mode {mode!r}")
    if seq_len is None:
        raise ConfigError("sliding mode needs seq_len")
    rows = np.asarray([r for b in blocks for r in b], dtype=np.float64)
    if rows.shape[0] < seq_len:
        raise ContractViolation(
            f"{path}: {rows.shape[0]} rows < window length {seq_len}")
    count = (rows.shape[0] - seq_len) // stride + 1
    windows = np.stack([rows[i * stride:i * stride + seq_len]
                        for i in range(count)])
    return Dataset(windows, provenance=path)


def save_csv_windows(windows, path, channel_names=None) -> None:
    """Write windows as block CSV (blank line between windows)."""
    windows = np.asarray(windows, dtype=np.float64)
    d = windows.shape[2]
    names = channel_names or [f"c{i}" for i in range(d)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for w, window in enumerate(windows):
        if w:
            buf.write("\n")
        for row in window:
            writer.writerow([repr(float(v)) for v in row])
    atomic_write_text(path, buf.getvalue())


def normalize(ds: Dataset) -> Dataset:
    """Min-max to [-1, 1] per channel; constant channels pass through
    with scale 1. Stats are stored for the inverse map."""
    w = ds.windows
    lo = w.min(axis=(0, 1))
    hi = w.max(axis=(0, 1))
    shift = (hi + lo) / 2.0
    scale = (hi - lo) / 2.0
    const = scale == 0.0
    shift = np.where(const, 0.0, shift)
    scale = np.where(const, 1.0, scale)
    return Dataset((w - shift) / scale, norm_shift=shift, norm_scale=scale,
                   provenance=ds.provenance, labels=ds.labels)
