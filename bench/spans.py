"""Span tracing of the prismflow modules from outside the package.

`install` replaces each traced function at every module attribute that
holds it (for example both `prismflow.router.wta_loss` and
`prismflow.trainer.wta_loss`, the name `train_step` looks up), so every
caller goes through the wrapper. `uninstall` puts the originals back.
Spans stay in memory until the run ends; `layer_metrics` derives the
per-layer figures from them and `write_spans` saves them.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from summary import percentile

TARGETS = {
    "trainer": ("train_step", "total_loss"),
    "flowpath": ("encode", "cfm_loss"),
    "router": ("route", "wta_loss", "balance_loss_and_grads"),
    "experts": ("assemble_operator",),
    "numcore": ("mlp_apply", "mlp_gradients", "adam_update"),
    "sampler": ("residual_velocity_step", "generate_conditional"),
    "datasets": ("load_csv_windows", "save_csv_windows"),
    "checkpoint": ("load_checkpoint", "save_checkpoint"),
    "spectra": ("exact_dmd", "spectral_overlap"),
    "metrics": ("discriminative_score", "predictive_score",
                "correlational_score"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, end, parent, op, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at the root
        self.op = op  # id of the benchmark operation the span belongs to
        self.attrs = attrs


class Recorder:
    """Collects spans of one single-threaded run. Wrappers record only
    while `active` is set, so output checks between operations leave no
    spans."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.op = None
        self._stack = []

    def open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), None, parent,
                               self.op))
        self._stack.append(idx)
        return idx

    def close(self, idx) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def parent_of(self, idx):
        p = self.spans[idx].parent
        return self.spans[p] if p >= 0 else None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:  # the traced call reports the missing file itself
        return 0


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def _gradient_attrs(rec, idx, args, kwargs):
    net, upstream = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 2,
                                                       "upstream")
    attrs = {"rows": _rows(upstream)}
    parent = rec.parent_of(idx)
    if (parent is not None and parent.name == "router.wta_loss"
            and id(net) == parent.attrs["decoder"]):
        up = np.atleast_2d(upstream)
        attrs["decoder_rows"] = up.shape[0]
        attrs["useful_rows"] = int(np.count_nonzero(np.any(up != 0, axis=1)))
    return attrs


# Attributes recorded when a span opens (before) or after the call returns.
BEFORE = {
    "router.wta_loss": lambda rec, idx, a, k: {
        "decoder": id(_arg(a, k, 0, "model").decoder)},
    "sampler.residual_velocity_step": lambda rec, idx, a, k: {
        "gamma": float(_arg(a, k, 3, "cfg").gamma)},
    "numcore.mlp_apply": lambda rec, idx, a, k: {
        "rows": _rows(_arg(a, k, 1, "x"))},
    "numcore.mlp_gradients": _gradient_attrs,
    "datasets.load_csv_windows": lambda rec, idx, a, k: {
        "bytes": _size(_arg(a, k, 0, "path"))},
    "checkpoint.load_checkpoint": lambda rec, idx, a, k: {
        "bytes": _size(_arg(a, k, 0, "path"))},
}
AFTER = {
    "datasets.save_csv_windows": lambda a, k: {
        "bytes": _size(_arg(a, k, 1, "path"))},
    "checkpoint.save_checkpoint": lambda a, k: {
        "bytes": _size(_arg(a, k, 0, "path"))},
}


def _wrap(rec: Recorder, name: str, fn):
    before, after = BEFORE.get(name), AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            if before is not None:
                rec.spans[idx].attrs = before(rec, idx, args, kwargs)
            out = fn(*args, **kwargs)
            if after is not None:
                rec.spans[idx].attrs = after(args, kwargs)
            return out
        finally:
            rec.close(idx)

    return wrapper


def install(rec: Recorder) -> list:
    """Wrap every TARGETS function wherever a prismflow module holds it.
    Returns the patch list that `uninstall` reverts."""
    importlib.import_module("prismflow.cli")  # imports every module
    modules = [m for n, m in list(sys.modules.items())
               if n == "prismflow" or n.startswith("prismflow.")]
    patches = []
    for modname, funcs in TARGETS.items():
        home = importlib.import_module(f"prismflow.{modname}")
        for fname in funcs:
            orig = getattr(home, fname)
            wrapper = _wrap(rec, f"{modname}.{fname}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
    return patches


def uninstall(patches) -> None:
    for mod, attr, orig in reversed(patches):
        setattr(mod, attr, orig)


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                for c in children.get(i, ())]
        out.append((s.end - s.start) - covered_length(kids))
    return out


# (metric name, unit, better) of every per-layer metric, in output order.
LAYER_METRICS = (
    ("trainer.train_step.p50_ms", "ms", "lower"),
    ("trainer.train_step.p90_ms", "ms", "lower"),
    ("trainer.total_loss.self_ms", "ms", "lower"),
    ("flowpath.encode.per_step", "count", "lower"),
    ("flowpath.encode.self_ms", "ms", "lower"),
    ("flowpath.cfm_loss.self_ms", "ms", "lower"),
    ("router.wta_loss.self_ms", "ms", "lower"),
    ("router.balance_loss_and_grads.self_ms", "ms", "lower"),
    ("router.decoder_backward.useful_ratio", "ratio", "higher"),
    ("router.decoder_backward.rows", "count", "lower"),
    ("router.route.calls", "count", "lower"),
    ("router.route.self_ms", "ms", "lower"),
    ("experts.assemble_operator.calls", "count", "lower"),
    ("experts.assemble_operator.self_ms", "ms", "lower"),
    ("numcore.mlp_apply.calls", "count", "lower"),
    ("numcore.mlp_apply.rows", "count", "lower"),
    ("numcore.mlp_apply.self_s", "s", "lower"),
    ("numcore.mlp_gradients.calls", "count", "lower"),
    ("numcore.mlp_gradients.rows", "count", "lower"),
    ("numcore.mlp_gradients.self_s", "s", "lower"),
    ("numcore.adam_update.calls", "count", "lower"),
    ("numcore.adam_update.self_ms", "ms", "lower"),
    ("sampler.residual_velocity_step.gamma1.p50_ms", "ms", "lower"),
    ("sampler.residual_velocity_step.gamma1.p90_ms", "ms", "lower"),
    ("sampler.residual_velocity_step.gamma0.p50_ms", "ms", "lower"),
    ("sampler.residual_velocity_step.gamma0.p90_ms", "ms", "lower"),
    ("sampler.generate_conditional.calls", "count", "lower"),
    ("sampler.generate_conditional.self_s", "s", "lower"),
    ("sampler.guidance_backward.self_s", "s", "lower"),
    ("datasets.load_csv_windows.self_s", "s", "lower"),
    ("datasets.load_csv_windows.bytes", "bytes", "lower"),
    ("datasets.save_csv_windows.self_s", "s", "lower"),
    ("datasets.save_csv_windows.bytes", "bytes", "lower"),
    ("checkpoint.load_checkpoint.self_s", "s", "lower"),
    ("checkpoint.load_checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.save_checkpoint.self_s", "s", "lower"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
    ("spectra.exact_dmd.calls", "count", "lower"),
    ("spectra.exact_dmd.self_s", "s", "lower"),
    ("spectra.spectral_overlap.self_s", "s", "lower"),
    ("metrics.discriminative_score.self_s", "s", "lower"),
    ("metrics.predictive_score.self_s", "s", "lower"),
    ("metrics.correlational_score.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics(spans, rounds: int, untraced_walls, traced_walls) -> dict:
    """Per-layer figures from the spans of `rounds` traced rounds.

    Suffixes: `calls`, `rows`, `bytes` and `self_s` are totals per round;
    `self_ms` is the mean self time per call; `pNN_ms` is a percentile of
    the inclusive duration per call. A layer the workload never enters
    reads 0.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_total = defaultdict(float)
    durations = defaultdict(list)
    attr_sum = defaultdict(float)
    in_step = [False] * len(spans)
    encodes_in_step = 0
    guidance = 0.0
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_total[s.name] += selfs[i]
        dur = s.end - s.start
        key = s.name
        if s.name == "sampler.residual_velocity_step":
            key += ".gamma0" if s.attrs["gamma"] == 0.0 else ".gamma1"
        durations[key].append(dur)
        for a, v in (s.attrs or {}).items():
            if a in ("rows", "bytes", "decoder_rows", "useful_rows"):
                attr_sum[(s.name, a)] += v
        parent = spans[s.parent] if s.parent >= 0 else None
        in_step[i] = s.name == "trainer.train_step" or (
            parent is not None and in_step[s.parent])
        if s.name == "flowpath.encode" and in_step[i]:
            encodes_in_step += 1
        if (s.name == "numcore.mlp_gradients" and parent is not None
                and parent.name == "sampler.generate_conditional"):
            guidance += dur

    def per_round(x):
        return x / rounds

    def per_call_ms(name):
        return 1e3 * self_total[name] / calls[name] if calls[name] else 0.0

    def pct_ms(key, p):
        return 1e3 * percentile(durations[key], p) if durations[key] else 0.0

    out = {}
    for name, _, _ in LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        if stat == "self_ms":
            out[name] = per_call_ms(base)
        elif stat == "self_s":
            out[name] = per_round(self_total[base])
        elif stat == "calls":
            out[name] = per_round(calls[base])
        elif stat in ("rows", "bytes") and base != "router.decoder_backward":
            out[name] = per_round(attr_sum[(base, stat)])
        elif stat in ("p50_ms", "p90_ms"):
            out[name] = pct_ms(base, float(stat[1:3]))
    steps = calls["trainer.train_step"]
    out["flowpath.encode.per_step"] = encodes_in_step / steps if steps else 0.0
    dec_rows = attr_sum[("numcore.mlp_gradients", "decoder_rows")]
    useful = attr_sum[("numcore.mlp_gradients", "useful_rows")]
    out["router.decoder_backward.rows"] = per_round(dec_rows)
    out["router.decoder_backward.useful_ratio"] = (useful / dec_rows
                                                   if dec_rows else 0.0)
    out["sampler.guidance_backward.self_s"] = per_round(guidance)
    out["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                   / statistics.median(untraced_walls) - 1.0)
    return {name: out[name] for name, _, _ in LAYER_METRICS}


def write_spans(path: str, spans, header: str) -> None:
    """One CSV line per span: index, name, start, end, parent, op, attrs."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\nindex,name,start,end,parent,op,attrs\n")
        for i, s in enumerate(spans):
            attrs = ";".join(f"{k}={v}" for k, v in (s.attrs or {}).items()
                             if k != "decoder")
            fh.write(f"{i},{s.name},{s.start:.9f},{s.end:.9f},{s.parent},"
                     f"{s.op},{attrs}\n")
