"""Single command-line entry point: train, sample, impute, forecast,
eval, dmd, diagnose, gen-data.

Exit codes: 0 success, 1 usage error, 2 runtime error. Outputs are
written atomically; every artifact gets a sidecar/header with the fully
resolved configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from functools import cache, partial

import numpy as np

from . import __version__
from .checkpoint import atomic_write_text
from .datasets import (LOAD_MODES, DiagnosticSpec, gen_bimodal_frequency,
                       gen_sines, gen_velocity_mixture_diagnostic,
                       load_csv_windows, normalize, save_csv_windows,
                       velocity_energy_gap)
from .errors import ConfigError, ContractViolation, PrismFlowError
from .experts import operator_eigenvalues
from .metrics import (MetricReport, correlational_score, discriminative_score,
                      predictive_score, window_pair)
from .model import ModelConfig, PrismFlowModel
from .numcore import RngStream
from .sampler import (ConditionMask, SamplerConfig, export_samples, generate,
                      generate_conditional)
from .spectra import check_dmd, exact_dmd, spectral_overlap
from .trainer import LAMBDA_KINDS, TrainConfig, fit, load_config_file

CONFIG_ENV = "PRISMFLOW_CONFIG"


def _resolved(args, omit=()) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in omit and v is not None}


def _write_meta(out_path: str, args) -> None:
    atomic_write_text(out_path + ".meta.json",
                      json.dumps({"tool_version": __version__,
                                  "resolved_config": _resolved(args)},
                                 indent=2, default=str) + "\n")


# Config-file settings by section, each with its `train` flag or None; a
# setting's type is that of its default. K is a model setting that the
# file sets under [train], as `--k` is a train flag.
SETTINGS = {
    "train": {"alpha_w": "--alpha-w", "alpha_b": "--alpha-b",
              "lambda_kind": "--lambda-kind", "epochs": "--epochs",
              "batch_size": "--batch-size", "lr": "--lr", "beta": "--beta",
              "wta_eps": None, "prob_floor": None, "divergence_guard": None,
              "n_experts": "--k"},
    "model": {"latent_dim": "--latent-dim", "hidden_dim": "--hidden-dim",
              "head_hidden": "--head-hidden", "dec_hidden": None,
              "router_hidden": None, "enc_layers": None, "delta": "--delta"},
}


def _owner(key):
    """The config class that holds a setting: the model's or the training's."""
    return ModelConfig if hasattr(ModelConfig, key) else TrainConfig


def _configs(args) -> tuple[TrainConfig, ModelConfig]:
    """Training and model configs, each made once from its defaults, then
    the config file (where an unknown section or key, or a value that does
    not parse, is a ConfigError), then command-line flags."""
    path = args.config or os.environ.get(CONFIG_ENV)
    sections = load_config_file(path) if path else {}
    unknown = [section for section in sections if section not in SETTINGS]
    if unknown:
        raise ConfigError(f"{path}: unknown section [{unknown[0]}]")
    values = {TrainConfig: {"seed": args.seed}, ModelConfig: {}}
    for section, flags in SETTINGS.items():
        for key, text in sections.get(section, {}).items():
            if key not in flags:
                raise ConfigError(f"{path}: unknown key {key!r} in "
                                  f"[{section}]")
            kind = type(getattr(_owner(key), key))
            try:
                values[_owner(key)][key] = kind(text)
            except ValueError:
                raise ConfigError(f"{path}: [{section}] {key} = {text!r} is "
                                  f"not a valid {kind.__name__}") from None
        for key in flags.keys() & _resolved(args).keys():  # flags given
            values[_owner(key)][key] = getattr(args, key)
    return (TrainConfig(**values[TrainConfig]),
            ModelConfig(**values[ModelConfig]))


def _load_windows(path, **kwargs):
    """Windows that train, eval and dmd can work on: at least one window
    and every value finite; anything else is a ContractViolation."""
    ds = load_csv_windows(path, **kwargs)
    if ds.n == 0:
        raise ContractViolation(f"{path}: holds no windows")
    bad = np.flatnonzero(~np.isfinite(ds.windows).all(axis=(1, 2)))
    if bad.size:
        raise ContractViolation(f"{path}: window {bad[0]} holds a non-finite "
                                f"value")
    return ds


def cmd_gen_data(args):
    rng = RngStream(args.seed)
    if args.kind == "sines":
        ds = gen_sines(args.n, args.seq_len, args.channels, rng=rng)
    else:
        ds = gen_bimodal_frequency(args.n, args.seq_len, args.channels,
                                   args.f_low, args.f_high, rng=rng)
    save_csv_windows(ds.windows, args.out)
    _write_meta(args.out, args)
    if ds.labels is not None:
        atomic_write_text(args.out + ".labels",
                          "\n".join(str(int(x)) for x in ds.labels) + "\n")
    print(f"wrote {ds.n} windows to {args.out}")


def cmd_train(args):
    ds = _load_windows(args.data, seq_len=args.seq_len, stride=args.stride,
                       mode=args.load_mode)
    shift = scale = None
    if args.normalize:
        ds = normalize(ds)
        shift, scale = ds.norm_shift, ds.norm_scale
    tcfg, mcfg = _configs(args)
    model, report = fit(ds.windows, mcfg, tcfg, norm_shift=shift,
                        norm_scale=scale,
                        log=(None if args.quiet else print))
    model.save(args.out, extra_header={
        "train_config": _resolved(args), "tool_version": __version__})
    if args.report:
        report.epochs.insert(0, {"resolved_config": _resolved(args)})
        report.save(args.report)
    print(f"saved checkpoint to {args.out}")


def cmd_sample(args):
    model = PrismFlowModel.load(args.checkpoint)
    cfg = SamplerConfig(steps=args.steps, gamma=args.gamma)
    batch = generate(model, args.n, cfg, RngStream(args.seed))
    export_samples(batch, args.out, model.norm_shift, model.norm_scale)
    _write_meta(args.out, args)
    print(f"wrote {args.n} samples to {args.out}")


def cmd_impute(args, mode="imputation"):
    model = PrismFlowModel.load(args.checkpoint)
    observed = load_csv_windows(args.observed, mode="blocks")
    mask = load_csv_windows(args.mask, mode="blocks").windows
    bad = np.flatnonzero(~((mask == 0.0) | (mask == 1.0)).all(axis=(1, 2)))
    if bad.size:
        raise ContractViolation(f"{args.mask}: window {bad[0]} holds a mask "
                                f"cell that is not 0 or 1")
    cfg = SamplerConfig(steps=args.steps, gamma=args.gamma,
                        eta_g=args.eta_g, mode=mode)
    y = observed.windows
    if model.norm_shift is not None:
        y = (y - model.norm_shift) / model.norm_scale
    # window i draws its noise from stream (seed, i)
    batch = generate_conditional(
        model, ConditionMask(mask=mask == 1.0, values=y), cfg,
        RngStream(args.seed))
    export_samples(batch, args.out, model.norm_shift, model.norm_scale)
    _write_meta(args.out, args)
    print(f"wrote {len(batch)} conditional samples to {args.out}")


cmd_forecast = partial(cmd_impute, mode="forecasting")


def cmd_eval(args):
    rng = RngStream(args.seed)
    scores = {  # each reads the windows loaded below when it runs
        "disc": lambda: discriminative_score(real, gen, rng.child(1)),
        "pred": lambda: predictive_score(real, gen, rng.child(2)),
        "corr": lambda: correlational_score(real, gen),
        "spectral": lambda: spectral_overlap(
            exact_dmd(real.windows, rank=args.rank, delay=args.delay),
            exact_dmd(gen.windows, rank=args.rank, delay=args.delay)),
    }
    wanted = args.metrics.split(",")
    # refuse a request by its names before either file is read
    for i, name in enumerate(wanted):
        if name in wanted[:i]:
            raise PrismFlowError(f"metric {name!r} requested twice")
        if name not in scores:
            raise PrismFlowError(f"unknown metric {name!r}")
    real, gen = (_load_windows(path, seq_len=args.seq_len, mode=args.load_mode)
                 for path in (args.real, args.gen))
    for name in wanted:  # and what the windows cannot serve
        if name == "spectral":
            for ds in (real, gen):
                check_dmd(ds.seq_len, args.rank, args.delay)
        else:
            window_pair(real, gen, name)
    rows = [{"resolved_config": _resolved(args)}]
    # the hash names the settings, not where the files are
    config = _resolved(args, omit=("real", "gen", "out"))
    for name in wanted:
        value = scores[name]()
        report = MetricReport.build(name, value, args.seed, config)
        rows.append(report.__dict__)
        print(f"{name}: {value:.6f}")
    if args.out:
        atomic_write_text(args.out,
                          "\n".join(json.dumps(r, default=str)
                                    for r in rows) + "\n")


def cmd_dmd(args):
    lines = ["source,re,im,amplitude"]
    if args.experts and (args.real or args.gen):
        raise PrismFlowError("dmd takes --experts or --real and --gen, "
                             "not both")
    if args.experts:
        model = PrismFlowModel.load(args.experts)
        for k, a in enumerate(model.operators()):
            for ev in operator_eigenvalues(a):
                lines.append(f"expert{k},{float(ev.real)!r},"
                             f"{float(ev.imag)!r},")
        atomic_write_text(args.out, "\n".join(lines) + "\n")
        _write_meta(args.out, args)
        print(f"wrote expert spectra to {args.out}")
        return
    if not (args.real and args.gen):
        raise PrismFlowError("dmd needs --experts or both --real and --gen")
    real = _load_windows(args.real, mode="blocks")
    gen = _load_windows(args.gen, mode="blocks")
    for ds in (real, gen):  # refuse either set before any DMD runs
        check_dmd(ds.seq_len, args.rank, args.delay)
    sr = exact_dmd(real.windows, rank=args.rank, delay=args.delay)
    sg = exact_dmd(gen.windows, rank=args.rank, delay=args.delay)
    for tag, spec in (("real", sr), ("gen", sg)):
        for ev, amp in zip(spec.eigenvalues, spec.amplitudes):
            lines.append(f"{tag},{float(ev.real)!r},{float(ev.imag)!r},"
                         f"{float(amp)!r}")
    overlap = spectral_overlap(sr, sg)
    lines.append(f"overlap,{overlap!r},,")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    _write_meta(args.out, args)
    print(f"spectral overlap: {overlap:.6f}")


def cmd_diagnose(args):
    spec = DiagnosticSpec(separation=args.c, weights=(args.w, 1.0 - args.w),
                          n=args.n)
    x0, x1, _ = gen_velocity_mixture_diagnostic(spec, RngStream(args.seed))
    mean_sq, sq_mean = velocity_energy_gap(x0, x1)
    u = (x1 - x0).reshape(spec.n, -1)
    print(f"mean velocity (element avg): {u.mean():.6f}")
    print(f"mean ||u||^2: {mean_sq:.6f}")
    print(f"||mean u||^2: {sq_mean:.6f}")
    print(f"energy gap:   {mean_sq - sq_mean:.6f}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="prismflow", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    g.add_argument("--kind", required=True, choices=["sines", "bimodal"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seq-len", dest="seq_len", type=int, default=24)
    g.add_argument("--channels", type=int, default=5)
    g.add_argument("--f-low", dest="f_low", type=float, default=2.0)
    g.add_argument("--f-high", dest="f_high", type=float, default=8.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train a model on a CSV dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--config", default=None)
    t.add_argument("--seq-len", dest="seq_len", type=int, default=None)
    t.add_argument("--stride", type=int, default=1)
    t.add_argument("--load-mode", dest="load_mode", default="blocks",
                   choices=LOAD_MODES)
    t.add_argument("--seed", type=int, required=True)
    for flags in SETTINGS.values():
        for key in filter(flags.get, flags):
            kind = type(getattr(_owner(key), key))
            t.add_argument(flags[key], dest=key, default=None,
                           **({"choices": LAMBDA_KINDS} if kind is str
                              else {"type": kind}))
    t.add_argument("--normalize", action=argparse.BooleanOptionalAction,
                   default=True)
    t.add_argument("--quiet", action="store_true")
    t.add_argument("--out", required=True)
    t.add_argument("--report", default=None)

    sampling = argparse.ArgumentParser(add_help=False)  # flags of all three
    sampling.add_argument("--checkpoint", required=True)
    sampling.add_argument("--steps", type=int, default=SamplerConfig.steps)
    sampling.add_argument("--gamma", type=float, default=SamplerConfig.gamma)
    sampling.add_argument("--seed", type=int, required=True)
    sampling.add_argument("--out", required=True)

    s = sub.add_parser("sample", parents=[sampling],
                       help="generate unconditional samples")
    s.add_argument("--n", type=int, required=True)

    for verb in ("impute", "forecast"):
        c = sub.add_parser(verb, parents=[sampling],
                           help=f"{verb} with guidance sampling")
        c.add_argument("--observed", required=True)
        c.add_argument("--mask", required=True)
        c.add_argument("--eta-g", dest="eta_g", type=float,
                       default=SamplerConfig.eta_g)

    e = sub.add_parser("eval", help="compare real vs generated CSVs")
    e.add_argument("--real", required=True)
    e.add_argument("--gen", required=True)
    e.add_argument("--metrics", default="disc,pred,corr,spectral")
    e.add_argument("--seq-len", dest="seq_len", type=int, default=None)
    e.add_argument("--load-mode", dest="load_mode", default="blocks",
                   choices=LOAD_MODES)
    e.add_argument("--rank", type=int, default=10)
    e.add_argument("--delay", type=int, default=1)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default=None)

    d = sub.add_parser("dmd", help="DMD spectra of data or trained experts")
    d.add_argument("--real", default=None)
    d.add_argument("--gen", default=None)
    d.add_argument("--experts", default=None,
                   help="checkpoint path: export per-expert operator spectra")
    d.add_argument("--rank", type=int, default=10)
    d.add_argument("--delay", type=int, default=1)
    d.add_argument("--out", required=True)

    di = sub.add_parser("diagnose",
                        help="two-mode velocity averaging diagnostic")
    di.add_argument("--c", type=float, default=DiagnosticSpec.separation)
    di.add_argument("--w", type=float, default=DiagnosticSpec.weights[0])
    di.add_argument("--n", type=int, default=DiagnosticSpec.n)
    di.add_argument("--seed", type=int, default=0)
    return p


# the parser of every run_command in this process, built on the first
_parser = cache(build_parser)


def run_command(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    # read at each call, so a verb function replaced on the module runs
    run = {"gen-data": cmd_gen_data, "train": cmd_train, "sample": cmd_sample,
           "impute": cmd_impute, "forecast": cmd_forecast, "eval": cmd_eval,
           "dmd": cmd_dmd, "diagnose": cmd_diagnose}[args.verb]
    # each warning of the verb is one `warning:` line, also under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda *w: print(f"warning: {w[0]}",
                                                file=sys.stderr)
        try:
            run(args)
        except PrismFlowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 2
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
