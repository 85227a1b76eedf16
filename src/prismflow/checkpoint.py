"""Flat binary checkpoint container.

Layout (little-endian):
    magic   4 bytes  b"PFCK"
    version u32      format version (currently 1)
    hlen    u64      length of the UTF-8 JSON header
    header  hlen bytes  JSON object with model hyperparameters
    nblocks u64
    then per block:
        nlen  u64, name nlen bytes UTF-8
        rows  u64, cols u64
        data  rows*cols float64, row-major

1-D parameter blocks are stored with rows=1.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .errors import ContractViolation, ParseError

MAGIC = b"PFCK"
FORMAT_VERSION = 1


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write via temp file + rename so failures leave no partial file."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    umask = os.umask(0o022)  # the only way to read it is to set it
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, 0o666 & ~umask)  # `open`'s mode, not 0o600
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_lines(path: str, lines) -> None:
    """The one line-file rule: each item, then a newline, as UTF-8,
    written atomically; `lines` that raise leave no file."""
    atomic_write_bytes(path, "".join(f"{line}\n" for line in lines)
                       .encode("utf-8"))


def save_checkpoint(path: str, header: dict, blocks: dict) -> None:
    """Serialize named float64 parameter blocks plus a JSON header."""
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    out = [MAGIC, struct.pack("<I", FORMAT_VERSION),
           struct.pack("<Q", len(hdr)), hdr,
           struct.pack("<Q", len(blocks))]
    for name, arr in blocks.items():
        a = np.ascontiguousarray(arr, dtype=np.float64)
        if a.ndim == 1:
            rows, cols = 1, a.shape[0]
        elif a.ndim == 2:
            rows, cols = a.shape
        else:
            raise ContractViolation(f"block {name!r} must be 1-D or 2-D")
        nb = name.encode("utf-8")
        out.append(struct.pack("<Q", len(nb)))
        out.append(nb)
        out.append(struct.pack("<QQ", rows, cols))
        out.append(a.tobytes())
    atomic_write_bytes(path, b"".join(out))


def load_checkpoint(path: str):
    """Read a checkpoint; returns (header dict, blocks dict).

    2-D blocks come back (rows, cols); rows==1 blocks come back 1-D.
    Every length field is checked against the file size, and bytes
    after the last block are rejected.
    """
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    if bytes(raw[:4]) != MAGIC:
        raise ContractViolation(f"{path}: not a checkpoint file (bad magic)")
    off = 4

    def take(n: int) -> memoryview:
        nonlocal off
        if n > len(raw) - off:
            raise ParseError(f"{path}: truncated checkpoint: {n} bytes "
                             f"needed at offset {off}, {len(raw) - off} left")
        off += n
        return raw[off - n:off]

    (version,) = struct.unpack("<I", take(4))
    if version != FORMAT_VERSION:
        raise ContractViolation(f"{path}: unsupported format version {version}")
    (hlen,) = struct.unpack("<Q", take(8))
    try:
        header = json.loads(bytes(take(hlen)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: malformed checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise ParseError(f"{path}: checkpoint header is not a JSON object")
    (nblocks,) = struct.unpack("<Q", take(8))
    blocks = {}
    for _ in range(nblocks):
        (nlen,) = struct.unpack("<Q", take(8))
        try:
            name = bytes(take(nlen)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: malformed block name: {exc}") from None
        rows, cols = struct.unpack("<QQ", take(16))
        arr = np.frombuffer(take(rows * cols * 8), dtype="<f8").copy()
        blocks[name] = arr if rows == 1 else arr.reshape(rows, cols)
    if off != len(raw):
        raise ParseError(f"{path}: {len(raw) - off} trailing bytes after "
                         f"the last block")
    return header, blocks
