import csv
import io
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest

from prismflow.datasets import Dataset
from prismflow.errors import ConfigError, ContractViolation, ParseError
from prismflow.flowpath import encode, time_features
from prismflow.model import ModelConfig, PrismFlowModel
from prismflow.numcore import RngStream, mlp_apply
from prismflow.trainer import lambda_schedule

# test-only oracles, importable from here like the reference code below
from oracles import (FrozenObjective, balance_alone,  # noqa: F401
                     cfm_alone, finite_difference_check, frozen_total_loss_fn,
                     frozen_wta_loss_fn, global_velocity, per_step_experts,
                     power_spectrum, reference_exact_dmd,
                     reference_operators, reference_velocity, wta_alone)


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak bytes that tracemalloc saw allocated while
    it ran (numpy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


ONE_BLAS_THREAD = dict(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       MKL_NUM_THREADS="1")


def child_output(snippet: str) -> str:
    """Standard output of a fresh Python process with one BLAS thread that
    runs `snippet` with the package importable. Each call runs one child
    and waits for it."""
    env = dict(os.environ, **ONE_BLAS_THREAD,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", snippet], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=300).stdout


def child_peak_rss_mb(snippet: str) -> float:
    """Peak resident set size (ru_maxrss), in MB, of a `child_output`
    process that runs `snippet`. Unlike `traced_peak`, it also sees what a
    refused or failed allocation left behind."""
    out = child_output(snippet + "\nimport resource\n"
                       "print(resource.getrusage(resource.RUSAGE_SELF)"
                       ".ru_maxrss)")
    return int(out.split()[-1]) / 1024  # Linux reports KiB


def pooled(calls: list) -> list:
    """`fn(*args)` of every `(fn, *args)` in `calls`, in order, run on
    min(os.cpu_count(), len(calls)) spawned workers, each started with one
    BLAS thread (its environment is read before it imports numpy); run
    serially here if a worker cannot start. `fn` must be importable, and
    its arguments and result picklable."""
    workers = min(os.cpu_count() or 1, len(calls))
    spawn = multiprocessing.get_context("spawn")
    try:
        with mock.patch.dict(os.environ, ONE_BLAS_THREAD), \
                ProcessPoolExecutor(workers, spawn) as pool:
            futures = [pool.submit(*call) for call in calls]
            return [future.result() for future in futures]
    except (OSError, BrokenProcessPool):
        return [fn(*args) for fn, *args in calls]


def vanilla_euler_generate(model, n: int, steps: int,
                           rng: RngStream) -> np.ndarray:
    """Reference flow-matching sampler: Euler on the global field only."""
    s, d = model.cfg.seq_len, model.cfg.channels
    x = rng.generator().standard_normal((n, s, d))
    dt = 1.0 / steps
    for i in range(steps):
        b = x.shape[0]
        tvec = np.full(b, i / steps)
        h, _ = encode(model, x, time_features(tvec, model.cfg.time_freqs))
        v, _ = mlp_apply(model.head, h)
        x = x + v.reshape(x.shape) * dt
    return x


def reference_total_loss(model, x0, x1, t, cfg):
    """Reference objective: the three terms, each on its own trunk pass,
    summed with their weights."""
    lam = lambda_schedule(cfg.lambda_kind, t)
    c_val, grads = cfm_alone(model, x0, x1, t)
    w_val, w_grads, info = wta_alone(model, x0, x1, t, cfg, lam=lam)
    b_val, b_grads, _ = balance_alone(model, x0, x1, t, cfg)
    for name in grads:
        grads[name] += cfg.alpha_w * w_grads[name] + cfg.alpha_b * b_grads[name]
    value = c_val + cfg.alpha_w * w_val + cfg.alpha_b * b_val
    parts = {"cfm": c_val, "wta": w_val, "bal": b_val}
    return value, grads, parts, info


class ReferenceAdam:
    """Reference optimizer: Adam with separate moment arrays per block,
    updated one block at a time."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step = 0
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}

    def update(self, params, grads):
        self.step += 1
        bc1 = 1.0 - self.beta1 ** self.step
        bc2 = 1.0 - self.beta2 ** self.step
        for name, p in params.items():
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _reference_parse_rows(text: str, path: str):
    """Reference CSV parser: csv.reader row by row, one float() per cell;
    an error names the line that its row starts on."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    channels = [name.strip() for name in header]
    blocks, current = [], []
    next_line = reader.line_num + 1
    for row in reader:
        lineno, next_line = next_line, reader.line_num + 1
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


def reference_load_csv_windows(path, seq_len=None, stride=1, mode="sliding"):
    """Reference reader: nested Python lists of floats, then np.asarray;
    sliding windows cut one slice at a time and stacked."""
    if not os.path.exists(path):
        raise ContractViolation(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    channels, blocks = _reference_parse_rows(text, path)
    if mode == "blocks":
        if not blocks:
            arr = np.zeros((0, seq_len or 0, len(channels)))
            return Dataset(arr)
        lengths = {len(b) for b in blocks}
        if len(lengths) != 1:
            raise ParseError(f"{path}: blocks have mixed lengths {sorted(lengths)}")
        if seq_len is not None and lengths != {seq_len}:
            raise ContractViolation(
                f"{path}: blocks have length {lengths.pop()}, expected {seq_len}")
        return Dataset(np.asarray(blocks, dtype=np.float64))
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
    return Dataset(windows)


def reference_csv_text(windows) -> str:
    """Reference writer: the block CSV text of `windows`, one csv.writer
    row per timestep and repr(float) per cell."""
    windows = np.asarray(windows, dtype=np.float64)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"c{i}" for i in range(windows.shape[2])])
    for w, window in enumerate(windows):
        if w:
            buf.write("\n")
        for row in window:
            writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


@pytest.fixture
def tiny_model():
    """S=8, D=2, d_z=4, K=2, hidden 8."""
    cfg = ModelConfig(seq_len=8, channels=2, n_experts=2, latent_dim=4,
                      hidden_dim=8, dec_hidden=8, router_hidden=8)
    return PrismFlowModel.init(cfg, RngStream(0))


@pytest.fixture
def four_expert_model():
    """The tiny model's shapes with K=4, so a batch of 4 can leave
    experts without a winning sample."""
    cfg = ModelConfig(seq_len=8, channels=2, n_experts=4, latent_dim=4,
                      hidden_dim=8, dec_hidden=8, router_hidden=8)
    return PrismFlowModel.init(cfg, RngStream(0))


@pytest.fixture
def tiny_batch():
    gen = RngStream(1).generator()
    x1 = gen.standard_normal((4, 8, 2))
    x0 = gen.standard_normal((4, 8, 2))
    t = gen.uniform(size=4)
    return x0, x1, t
