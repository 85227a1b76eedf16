"""The four benchmark workloads: inputs made from the workload seed, the
operations one round runs, and the checks on every output.

Each workload sets up into a work directory (data CSV from `gen-data`,
masks, and for all but `train` a checkpoint trained from that data), then
exposes its operations. An operation's `run` is the timed part; its
`check` is not timed, raises `OpFailed` on a wrong output, and returns a
digest of the output (compared across repeats of the operation within a
run) and named values for the report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from prismflow import cli
import prismflow.model as pf_model
import prismflow.numcore as pf_numcore
import prismflow.sampler as pf_sampler
import prismflow.trainer as pf_trainer

N_WINDOWS = 2000  # two-tone training set, as in the acceptance runs
SEQ_LEN = 64
TONES = (2, 8)  # cycles per window
K = 4
BATCH = 128
SETUP_EPOCHS = 20  # model used by sample, condition and evaluate
OP_EPOCHS = 8  # one `train` operation
N_SAMPLE = 512
STEPS = 100
N_COND = 16  # windows per conditional operation
FORECAST_HIDDEN = 16  # trailing steps hidden from `forecast`
EXACT_ETA_G = 10.0  # guidance strength of the exact-guidance API calls
OBSERVED_RTOL = 1e-9
OBSERVED_ATOL = 1e-12


class OpFailed(Exception):
    """An operation exited non-zero or produced a wrong output."""


@dataclass
class Op:
    name: str
    role: str  # "main" or "control": which end-to-end throughput it feeds
    windows: int  # windows one call handles, for windows/s
    run: Callable[[], object]
    check: Callable[[object], tuple]  # -> (digest, {name: value})
    time_key: str  # report name of its throughput or wall time
    quality_key: str | None = None  # report value fed to quality_error


@dataclass
class Workload:
    name: str
    seed: int
    work: str
    files: dict = field(default_factory=dict)  # input name -> path
    cond_truth: np.ndarray | None = None  # windows given to impute/forecast
    masks: dict = field(default_factory=dict)  # verb -> observed mask

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def run_cli(argv) -> str:
    """Run one CLI verb in-process; return its stdout or raise OpFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run_command([str(a) for a in argv])
    if rc != 0:
        raise OpFailed(f"{argv[0]} exited {rc}: {err.getvalue()[-400:]}")
    return out.getvalue()


def digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_windows(path: str, shape) -> np.ndarray:
    """Independent reader for the block CSV format: header row, one row
    per timestep, a blank line between windows. Checks shape and
    finiteness."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    windows, cur = [], []
    for line in lines[1:]:
        if not line.strip():
            if cur:
                windows.append(cur)
                cur = []
            continue
        cur.append([float(c) for c in line.split(",")])
    if cur:
        windows.append(cur)
    if len({len(w) for w in windows}) > 1:
        raise OpFailed(f"{path}: windows of mixed lengths")
    arr = np.asarray(windows, dtype=np.float64)
    if arr.shape != tuple(shape):
        raise OpFailed(f"{path}: shape {arr.shape}, expected {tuple(shape)}")
    if not np.all(np.isfinite(arr)):
        raise OpFailed(f"{path}: non-finite values")
    return arr


def write_windows(path: str, windows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c0\n" + "\n\n".join(
            "\n".join(repr(float(v)) for v in w[:, 0]) for w in windows)
            + "\n")


def check_observed(out, truth, mask, what: str) -> None:
    if not np.allclose(out[mask], truth[mask], rtol=OBSERVED_RTOL,
                       atol=OBSERVED_ATOL):
        raise OpFailed(f"{what}: observed entries were changed")


def tone_error(samples) -> float:
    """1 - share of the samples' spectral energy at the two tones; the
    training data itself scores about 0."""
    power = np.abs(np.fft.rfft(samples[:, :, 0], axis=1)) ** 2
    weights = np.full(power.shape[1], 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0  # SEQ_LEN is even: the Nyquist bin is not doubled
    energy = (power * weights).sum(axis=0)
    return float(1.0 - energy[list(TONES)].sum() / energy.sum())


def read_spectra(path: str):
    """Rows of a `dmd` CSV as (source, re, im, amplitude) with NaN for an
    empty cell, and the number of cells written as `np.float64(x)`.

    Under numpy 2, `cmd_dmd` formats numpy scalars with repr, which wraps
    them in `np.float64(...)`. The number inside is read and the wrapped
    cells are counted and reported, so the defect stays visible and a fix
    shows as a count of 0."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[0] != "source,re,im,amplitude":
        raise OpFailed(f"{path}: header {lines[0]!r}")
    rows, wrapped = [], 0
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 4:
            raise OpFailed(f"{path}: row {line!r}")
        values = []
        for cell in cells[1:]:
            if cell.startswith("np.float64(") and cell.endswith(")"):
                wrapped += 1
                cell = cell[len("np.float64("):-1]
            values.append(float(cell) if cell else float("nan"))
        rows.append((cells[0], *values))
    return rows, wrapped


def load_model(path: str):
    model = pf_model.PrismFlowModel.load(path)
    for name, p in model.params().items():
        if not np.all(np.isfinite(p)):
            raise OpFailed(f"{path}: non-finite parameter block {name}")
    return model


def train_argv(wl: Workload, epochs: int, k: int, out: str, report=None):
    argv = ["train", "--data", wl.files["data"], "--seed", wl.seed,
            "--epochs", epochs, "--batch-size", BATCH, "--k", k, "--quiet",
            "--out", out]
    return argv + (["--report", report] if report else [])


# -- set-up --------------------------------------------------------------

def setup(wl: Workload) -> str:
    """Make every input of the workload from its seed. Returns a digest
    of the inputs, equal across repeats of the set-up."""
    wl.files["data"] = wl.path("data.csv")
    run_cli(["gen-data", "--kind", "bimodal", "--n", N_WINDOWS,
             "--seq-len", SEQ_LEN, "--channels", 1, "--f-low", TONES[0],
             "--f-high", TONES[1], "--seed", wl.seed,
             "--out", wl.files["data"]])
    truth = read_windows(wl.files["data"], (N_WINDOWS, SEQ_LEN, 1))
    made = ["data"]
    if wl.name != "train":
        wl.files["model"] = wl.path("model.ckpt")
        run_cli(train_argv(wl, SETUP_EPOCHS, K, wl.files["model"]))
        made.append("model")
    if wl.name == "condition":
        gen = np.random.Generator(np.random.Philox(key=[wl.seed, 7]))
        idx = gen.choice(N_WINDOWS, N_COND, replace=False)
        wl.cond_truth = truth[idx]
        impute = gen.uniform(size=wl.cond_truth.shape) < 0.5
        impute[:, 0, 0] = True  # never an empty mask
        forecast = np.zeros_like(impute)
        forecast[:, :SEQ_LEN - FORECAST_HIDDEN] = True
        wl.masks = {"impute": impute, "forecast": forecast}
        for verb, mask in wl.masks.items():
            for kind, arr in (("observed", np.where(mask, wl.cond_truth, 0.0)),
                              ("mask", mask.astype(np.float64))):
                key = f"{verb}_{kind}"
                wl.files[key] = wl.path(f"{key}.csv")
                write_windows(wl.files[key], arr)
                made.append(key)
    if wl.name == "evaluate":
        wl.files["gen"] = wl.path("gen.csv")
        run_cli(["sample", "--checkpoint", wl.files["model"], "--n", N_SAMPLE,
                 "--steps", STEPS, "--seed", wl.seed, "--out", wl.files["gen"]])
        made.append("gen")
    return hashlib.sha256("".join(digest_file(wl.files[k])
                                  for k in made).encode()).hexdigest()


# -- operations ------------------------------------------------------------

def train_ops(wl: Workload):
    defaults = pf_trainer.TrainConfig()

    def op(k, name, quality):
        out, report = wl.path(f"k{k}.ckpt"), wl.path(f"k{k}.jsonl")

        def check(_):
            load_model(out)
            with open(report, encoding="utf-8") as fh:
                last = json.loads(fh.read().strip().split("\n")[-1])
            loss = (last["cfm"] + defaults.alpha_w * last["wta"]
                    + defaults.alpha_b * last["bal"])
            if last["epoch"] != OP_EPOCHS - 1 or not np.isfinite(loss):
                raise OpFailed(f"train k={k}: bad report row {last}")
            return digest_file(out), {f"{name}_final_loss": loss}

        return Op(f"train_k{k}", "main" if k == K else "control",
                  OP_EPOCHS * N_WINDOWS,
                  lambda: run_cli(train_argv(wl, OP_EPOCHS, k, out, report)),
                  check, f"{name}_windows_per_s",
                  f"{name}_final_loss" if quality else None)

    return [op(K, "train", quality=True), op(1, "train_k1", quality=False)]


def sample_ops(wl: Workload):
    def op(gamma, key, quality_key=None):
        out = wl.path(f"sample_g{gamma}.csv")

        def check(_):
            samples = read_windows(out, (N_SAMPLE, SEQ_LEN, 1))
            values = {}
            if quality_key:
                values[quality_key] = tone_error(samples)
            return digest_file(out), values

        argv = ["sample", "--checkpoint", wl.files["model"], "--n", N_SAMPLE,
                "--steps", STEPS, "--gamma", gamma, "--seed", wl.seed,
                "--out", out]
        return Op(f"sample_g{gamma}", "main" if gamma else "control",
                  N_SAMPLE, lambda: run_cli(argv), check, key, quality_key)

    return [op(1, "sample_windows_per_s", "sample_tone_error"),
            op(0, "sample_plain_windows_per_s")]


def condition_ops(wl: Workload):
    def cli_op(verb):
        out = wl.path(f"{verb}.csv")
        mask = wl.masks[verb]

        def check(_):
            got = read_windows(out, wl.cond_truth.shape)
            check_observed(got, wl.cond_truth, mask, verb)
            mae = float(np.abs(got[~mask] - wl.cond_truth[~mask]).mean())
            return digest_file(out), {f"{verb}_mae": mae}

        argv = [verb, "--checkpoint", wl.files["model"],
                "--observed", wl.files[f"{verb}_observed"],
                "--mask", wl.files[f"{verb}_mask"], "--steps", STEPS,
                "--seed", wl.seed, "--out", out]
        return Op(verb, "main", N_COND, lambda: run_cli(argv), check,
                  f"{verb}_windows_per_s", f"{verb}_mae")

    mask = wl.masks["impute"]

    def exact():
        model = pf_model.PrismFlowModel.load(wl.files["model"])
        cfg = pf_sampler.SamplerConfig(steps=STEPS, mode="imputation",
                                       eta_g=EXACT_ETA_G, exact_guidance=True)
        outs = []
        for i in range(N_COND):
            y = (wl.cond_truth[i] - model.norm_shift) / model.norm_scale
            cond = pf_sampler.ConditionMask(mask=mask[i],
                                            values=np.where(mask[i], y, 0.0))
            x = pf_sampler.generate_conditional(
                model, cond, cfg, pf_numcore.RngStream(wl.seed, i))[0]
            outs.append(x * model.norm_scale + model.norm_shift)
        return np.asarray(outs)

    def check_exact(out):
        if out.shape != wl.cond_truth.shape or not np.all(np.isfinite(out)):
            raise OpFailed("exact-guidance imputation: bad output")
        check_observed(out, wl.cond_truth, mask, "exact-guidance imputation")
        mae = float(np.abs(out[~mask] - wl.cond_truth[~mask]).mean())
        return hashlib.sha256(out.tobytes()).hexdigest(), {
            "impute_exact_mae": mae}

    return [cli_op("impute"), cli_op("forecast"),
            Op("impute_exact", "control", N_COND, exact, check_exact,
               "impute_exact_windows_per_s")]


def evaluate_ops(wl: Workload):
    n_compared = N_WINDOWS + N_SAMPLE
    eval_out = wl.path("eval.jsonl")
    ranges = {"disc": (0.0, 0.5), "pred": (0.0, np.inf),
              "corr": (0.0, np.inf), "spectral": (1e-300, 1.0)}

    def check_eval(_):
        with open(eval_out, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()][1:]
        scores = {r["name"]: r["value"] for r in rows}
        if set(scores) != set(ranges):
            raise OpFailed(f"eval: got scores {sorted(scores)}")
        for name, (lo, hi) in ranges.items():
            if not (np.isfinite(scores[name]) and lo <= scores[name] <= hi):
                raise OpFailed(f"eval: {name}={scores[name]} out of range")
        return digest_file(eval_out), {f"eval_{k}": v
                                       for k, v in scores.items()}

    dmd_out, experts_out = wl.path("dmd.csv"), wl.path("experts.csv")

    def dmd():
        run_cli(["dmd", "--real", wl.files["data"], "--gen", wl.files["gen"],
                 "--rank", 10, "--delay", 8, "--out", dmd_out])
        run_cli(["dmd", "--experts", wl.files["model"], "--out", experts_out])

    def check_dmd(_):
        rows, wrapped = read_spectra(dmd_out)
        overlap = [r[1] for r in rows if r[0] == "overlap"]
        modes = [r for r in rows if r[0] in ("real", "gen")]
        if (len(overlap) != 1 or not 0.0 < overlap[0] <= 1.0
                or len(modes) != len(rows) - 1
                or {r[0] for r in modes} != {"real", "gen"}
                or not all(np.isfinite(r[1:]).all() and r[3] >= 0
                           for r in modes)):
            raise OpFailed(f"dmd: bad spectra (overlap {overlap})")
        eig, wrapped_experts = read_spectra(experts_out)
        cfg = pf_model.PrismFlowModel.load(wl.files["model"]).cfg
        if (len(eig) != cfg.n_experts * cfg.latent_dim
                or not all(np.isfinite(r[2]) and r[1] <= -cfg.delta + 1e-9
                           for r in eig)):
            raise OpFailed("dmd --experts: spectra are not dissipative")
        return (digest_file(dmd_out) + digest_file(experts_out),
                {"dmd_overlap": overlap[0],
                 "dmd_np_float64_cells": wrapped + wrapped_experts})

    return [Op("eval", "main", n_compared,
               lambda: run_cli(["eval", "--real", wl.files["data"],
                                "--gen", wl.files["gen"],
                                "--metrics", "disc,pred,corr,spectral",
                                "--rank", 10, "--delay", 8,
                                "--seed", wl.seed, "--out", eval_out]),
               check_eval, "eval_s", "eval_pred"),
            Op("dmd", "control", n_compared, dmd, check_dmd, "dmd_s")]


OPS = {"train": train_ops, "sample": sample_ops,
       "condition": condition_ops, "evaluate": evaluate_ops}
