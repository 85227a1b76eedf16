"""Synthetic generators, CSV ingestion, normalization, and windowing.

CSV contract: UTF-8, comma-separated, first row = channel names, one
timestep per row. Multi-window files separate windows with a blank line
("blocks" mode); alternatively a single long record is cut into sliding
windows ("sliding" mode). A file is read in pieces of whole lines: a
numeric body by numpy's C reader, every other row by one `csv.reader`
over the decoded pieces.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checkpoint import atomic_write_text
from .errors import (ConfigError, ContractViolation, ParseError, check_int,
                     check_real, check_size)
from .numcore import RngStream

LOAD_MODES = ("blocks", "sliding")


@dataclass
class Dataset:
    windows: np.ndarray  # (n, S, D)
    norm_shift: np.ndarray | None = None  # per-channel, set by normalize()
    norm_scale: np.ndarray | None = None
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


def gen_sines(n, seq_len, channels, rng: RngStream = RngStream(0)):
    """Sines protocol: channel i of each window is
    sin(2*pi*eta*s/seq_len + theta) with eta ~ U(0, 1) and
    theta ~ U(-pi, pi) drawn per window and channel."""
    for key, value in (("n", n), ("seq_len", seq_len), ("channels", channels)):
        check_int(key, value, 1)
    check_size("n * seq_len * channels", n, seq_len, channels)
    gen = rng.generator()
    eta = gen.uniform(0.0, 1.0, size=(n, 1, channels))
    theta = gen.uniform(-np.pi, np.pi, size=(n, 1, channels))
    s = np.arange(seq_len).reshape(1, seq_len, 1)
    windows = np.sin(2.0 * np.pi * eta * s / seq_len + theta)
    return Dataset(windows)


def gen_bimodal_frequency(n, seq_len, channels, f_low, f_high,
                          rng: RngStream = RngStream(0)):
    """Two-regime stress set: each window is a pure sinusoid at f_low or
    f_high cycles per window (equal probability), random phase. Regime
    labels are kept on the dataset."""
    for key, value in (("n", n), ("seq_len", seq_len), ("channels", channels)):
        check_int(key, value, 1)
    check_size("n * seq_len * channels", n, seq_len, channels)
    for key, f in (("f_low", f_low), ("f_high", f_high)):
        check_real(f"frequency {key}", f)
        if not 0 < f < seq_len / 2:
            raise ConfigError(f"frequency {f} aliased for seq_len {seq_len}")
    if f_low == f_high:
        raise ConfigError("f_low and f_high must differ")
    gen = rng.generator()
    labels = gen.integers(0, 2, size=n)
    freqs = np.where(labels == 0, f_low, f_high).reshape(n, 1, 1)
    theta = gen.uniform(-np.pi, np.pi, size=(n, 1, channels))
    s = np.arange(seq_len).reshape(1, seq_len, 1)
    windows = np.sin(2.0 * np.pi * freqs * s / seq_len + theta)
    return Dataset(windows, labels=labels)


@dataclass(frozen=True)
class DiagnosticSpec:
    """Two-mode velocity diagnostic: the target velocity is exactly
    +separation or -separation on every element, by mixture weight."""

    separation: float = 2.0
    weights: tuple = (0.5, 0.5)
    n: int = 5000
    seq_len: int = 16
    channels: int = 1

    def __post_init__(self):
        if (len(self.weights) != 2 or abs(sum(self.weights) - 1.0) > 1e-12
                or not all(0.0 <= w <= 1.0 for w in self.weights)):
            raise ConfigError("weights must be a 2-way simplex")
        for key in ("n", "seq_len", "channels"):
            check_int(key, getattr(self, key), 1)
        check_real("separation", self.separation)
        elements = check_size("n * seq_len * channels", self.n,
                              self.seq_len, self.channels)
        # the velocity statistics sum n*S*D squared velocities of about
        # c^2; 4c^2 bounds each of them wherever the sum could overflow.
        # A Python float overflows to inf without a numpy warning
        c = float(self.separation)
        if not math.isfinite(4.0 * c * c * elements):
            raise ConfigError(f"separation {c} overflows the squared "
                              f"velocities of {elements} elements")


def gen_velocity_mixture_diagnostic(spec: DiagnosticSpec,
                                    rng: RngStream = RngStream(0)):
    """Paired (x0, x1) draws whose target velocity x1 - x0 is a two-mode
    distribution (+c or -c on all elements) at every intermediate state.
    Returns (x0, x1, signs)."""
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


# CSV lines written per slice: bounds the text the writer formats at once,
# so its memory does not grow with the file
_SLICE_LINES = 8192
# bytes read at a time from a file: every file is checked and parsed a
# piece of about this size at a time, so reading it holds neither the whole
# file nor a list of its lines
_SLICE_BYTES = 1 << 16
# the bytes that the body of a numeric file may hold (see `_scan`)
_NUMERIC = b"0123456789+-.eE,\n"


def _decode(data: bytes, path: str, offset: int = 0) -> str:
    """data, found at `offset` in the file, as text with universal newlines
    as `open` would give; bytes that are not UTF-8 are a ParseError naming
    their offset in the file."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 at byte "
                         f"{offset + exc.start}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _pieces(fh):
    """The rest of a binary file in pieces of whole lines: every piece but
    the last ends with a newline byte, and the last is the text after the
    final one (possibly empty). A piece is about _SLICE_BYTES long, or one
    line when that line is longer. In UTF-8 no byte of a multi-byte
    character is a newline, so each piece decodes on its own."""
    parts = []
    while block := fh.read(_SLICE_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join([*parts, block[:cut]])
            parts = []
        parts.append(block[cut:])
    yield b"".join(parts)


def _solid_lines(body: bytes) -> np.ndarray:
    """One flag per line of a piece of a numeric body, True where the line
    is not empty; text after the last newline is a line of its own."""
    if body and not body.endswith(b"\n"):
        body += b"\n"
    nl = np.frombuffer(b"\n" + body, np.uint8) == 10
    return ~nl[:-1][nl[1:]]  # a line is empty when a newline precedes its end


def _scan(fh, path: str):
    """Size in bytes, line count (newlines after translation, plus one) and
    the line flags of a numeric body, of a binary file read to its end; a
    ParseError at its first byte that is not UTF-8.

    The body (the lines after the header) is numeric when the file holds no
    quote (a quoted header cell may span lines that look numeric) and no
    carriage return, every body byte is a digit, a sign, '.', 'e', 'E', a
    comma or a newline, and some body line is not empty. Its flags are then
    one bool per body line, True where the line is not empty
    (`_solid_lines`); else None."""
    size, lines, quoted, solid = 0, 1, False, []
    for piece in _pieces(fh):
        text = _decode(piece, path, size)
        body = piece if size else piece.partition(b"\n")[2]
        size += len(piece)
        lines += text.count("\n")
        quoted = quoted or '"' in text
        if solid is not None and not quoted and b"\r" not in piece \
                and not body.translate(None, _NUMERIC):
            solid.append(_solid_lines(body))
        else:
            solid = None
    if solid is not None and (solid := np.concatenate(solid)).any():
        return size, lines, solid
    return size, lines, None


def _numeric_values(path: str, rows: int, d: int):
    """The (rows, d) values of a numeric file from numpy's C reader, or
    None when it raises or reads another shape. Within the numeric
    alphabet it converts a cell with the same routine as `float`, so the
    values are those of the Python path; every fault (a bad or empty cell,
    a comma-only or ragged line) is left to the Python path to name."""
    try:
        # an absolute path, so numpy never takes the name for a URL
        values = np.loadtxt(os.path.abspath(path), delimiter=",",
                            skiprows=1, comments=None, ndmin=2,
                            dtype=np.float64, encoding="utf-8")
    except Exception:  # also a name that numpy opens as compressed
        return None
    return values if values.shape == (rows, d) else None


def _csv_rows(fh, path: str):
    """The channel names, then each row with the line it starts on, of a
    binary file split by one `csv.reader` over its decoded pieces. Pieces
    end at newlines, so a quoted cell that spans pieces still parses."""
    reader = csv.reader(chain.from_iterable(
        io.StringIO(_decode(piece, path)) for piece in _pieces(fh)))
    try:
        yield [name.strip() for name in next(reader)]
        line = reader.line_num + 1
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


def _block_lengths(solid) -> np.ndarray:
    """Lengths of the runs of non-blank rows, from one flag per line or row,
    True where it is not blank."""
    edges = np.diff(np.concatenate([[False], solid, [False]]).view(np.int8))
    return np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)


def _parse_rows(path: str):
    """Parse a block CSV file. Returns the channel names, the values of the
    non-blank rows as one (rows, D) array, and the length of each block
    (run of non-blank rows between blank lines). The file is read twice:
    to check its text and count its lines, then to parse it. The header is
    read by `csv.reader`. A numeric body (see `_scan`) is parsed by numpy's
    C reader; any other body by the same `csv.reader`, cell by cell in
    Python, and a numeric one that numpy cannot take by a new one, after
    the header again."""
    with open(path, "rb") as fh:
        size, lines, solid = _scan(fh, path)
        if not size:
            raise ParseError(f"{path}: empty file")
        fh.seek(0)
        rows = _csv_rows(fh, path)
        channels = next(rows)
        d = len(channels)
        if solid is not None:
            rows.close()  # no decoded piece is held while numpy reads
            values = _numeric_values(path, int(np.count_nonzero(solid)), d)
            if values is not None:
                return channels, values, _block_lengths(solid)
            fh.seek(0)
            rows = _csv_rows(fh, path)
            next(rows)
        values = np.empty((lines, d))  # at most one row a line
        flat = values.reshape(-1)  # written cell by cell, row after row
        solid = np.zeros(lines, bool)  # True where a row is not blank
        filled = 0  # cells written
        for i, (line, row) in enumerate(rows):
            # a row is blank when every cell is whitespace (a csv [] row too)
            if not "".join(row).strip():
                continue
            if len(row) != d:
                raise ParseError(f"{path}:{line}: expected {d} cells, "
                                 f"got {len(row)}")
            for col, cell in enumerate(row, start=1):
                try:
                    flat[filled] = float(cell)
                except ValueError:
                    raise ParseError(f"{path}:{line}: column {col}: "
                                     f"non-numeric cell {cell!r}") from None
                filled += 1
            solid[i] = True
    return channels, values[:np.count_nonzero(solid)], _block_lengths(solid)


def load_csv_windows(path, seq_len=None, stride=1, mode="sliding"):
    """Load a CSV into fixed-length windows.

    mode="sliding": the file is one record, cut into windows of length
    seq_len at the given stride. mode="blocks": blank-line-separated
    blocks are taken as whole windows (seq_len optional check).
    """
    if mode not in LOAD_MODES:
        raise ConfigError(f"unknown load mode {mode!r}")
    if seq_len is not None:
        check_int("seq_len", seq_len, 1)
    if mode == "sliding":
        if seq_len is None:
            raise ConfigError("sliding mode needs seq_len")
        check_int("stride", stride, 1)
    if not os.path.exists(path):
        raise ContractViolation(f"no such file: {path}")
    channels, rows, lengths = _parse_rows(path)
    if mode == "blocks":
        if not lengths.size:
            arr = np.zeros((0, seq_len or 0, len(channels)))
            return Dataset(arr)
        sizes = sorted(set(lengths.tolist()))  # np.unique imports numpy.ma
        if len(sizes) != 1:
            raise ParseError(f"{path}: blocks have mixed lengths {sizes}")
        if seq_len is not None and sizes[0] != seq_len:
            raise ContractViolation(
                f"{path}: blocks have length {sizes[0]}, expected {seq_len}")
        return Dataset(rows.reshape(lengths.size, sizes[0], len(channels)))
    if rows.shape[0] < seq_len:
        raise ContractViolation(
            f"{path}: {rows.shape[0]} rows < window length {seq_len}")
    windows = sliding_window_view(rows, seq_len, axis=0)[::stride]
    return Dataset(windows.transpose(0, 2, 1).copy())


def _format_windows(block: np.ndarray) -> str:
    """Block CSV body of (n, S, D) windows: one line per row, a blank line
    between windows, every line ending in a newline."""
    n, s, d = block.shape
    if s == 0:
        return "\n" * (n - 1)
    cells = map(repr, block.ravel().tolist())
    if d > 1:
        rows = map(",".join, zip(*[cells] * d))
    else:
        rows = cells if d else repeat("", n * s)
    return "\n\n".join(map("\n".join, zip(*[iter(rows)] * s))) + "\n"


def save_csv_windows(windows, path) -> None:
    """Write windows as block CSV (blank line between windows) under the
    channel names c0, c1, ..."""
    windows = np.asarray(windows, dtype=np.float64)
    n, s, d = windows.shape
    buf = io.StringIO()
    buf.write(",".join(f"c{i}" for i in range(d)) + "\n")
    per_slice = max(1, _SLICE_LINES // max(s, 1))
    for start in range(0, n, per_slice):
        if start:
            buf.write("\n")
        buf.write(_format_windows(windows[start:start + per_slice]))
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
                   labels=ds.labels)
