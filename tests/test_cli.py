import argparse
import hashlib
import json
import os
import warnings

import numpy as np
import pytest

import prismflow.cli as cli_module
from conftest import traced_peak
from prismflow.checkpoint import load_checkpoint, save_checkpoint
from prismflow.cli import run_command
from prismflow.datasets import LOAD_MODES, load_csv_windows, save_csv_windows
from prismflow.model import ModelConfig, PrismFlowModel, param_layout
from prismflow.numcore import RngStream
from prismflow.trainer import LAMBDA_KINDS, TrainConfig
from prismflow.sampler import (ConditionMask, SamplerConfig,
                               generate_conditional)


def run(*argv):
    return run_command(list(argv))


@pytest.fixture
def data_csv(tmp_path):
    path = str(tmp_path / "data.csv")
    assert run("gen-data", "--kind", "sines", "--n", "80", "--seq-len", "8",
               "--channels", "2", "--seed", "0", "--out", path) == 0
    return path


@pytest.fixture
def checkpoint(tmp_path, data_csv):
    path = str(tmp_path / "model.ckpt")
    assert run("train", "--data", data_csv, "--seed", "0", "--epochs", "2",
               "--batch-size", "32", "--hidden-dim", "16", "--latent-dim",
               "4", "--quiet", "--out", path) == 0
    return path


class TestGenData:
    def test_writes_csv_and_meta(self, tmp_path):
        out = str(tmp_path / "d.csv")
        assert run("gen-data", "--kind", "bimodal", "--n", "10",
                   "--seq-len", "32", "--channels", "1", "--seed", "1",
                   "--out", out) == 0
        ds = load_csv_windows(out, mode="blocks")
        assert ds.windows.shape == (10, 32, 1)
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["resolved_config"]["kind"] == "bimodal"
        labels = open(out + ".labels").read().split()
        assert len(labels) == 10

    def test_usage_error_exit_code(self):
        assert run("gen-data", "--kind", "sines") == 1

    @pytest.mark.parametrize("kind,flag,value", [
        ("bimodal", "--n", "-3"), ("bimodal", "--n", "0"),
        ("sines", "--channels", "-1"), ("sines", "--channels", "0"),
        ("sines", "--seq-len", "0"), ("sines", "--seq-len", "-2")])
    def test_sizes_below_one_are_runtime_errors(self, tmp_path, capsys, kind,
                                                flag, value):
        out = tmp_path / "d.csv"
        assert run("gen-data", "--kind", kind, "--n", "4", "--seq-len", "32",
                   "--channels", "1", "--out", str(out), flag, value) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--f-low", "--f-high"])
    def test_nan_frequency_is_refused_as_non_finite(self, tmp_path, capsys,
                                                    flag):
        out = tmp_path / "d.csv"
        assert run("gen-data", "--kind", "bimodal", "--n", "4", "--seq-len",
                   "16", "--out", str(out), flag, "nan") == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == (f"error: frequency {key} must be "
                                           f"finite, got nan\n")
        assert not out.exists()

    def test_unknown_verb(self):
        assert run("frobnicate") == 1


@pytest.mark.parametrize("argv,choices", [
    (["train", "--data", "d.csv", "--seed", "0", "--out", "m",
      "--lambda-kind", "cosine"], LAMBDA_KINDS),
    (["train", "--data", "d.csv", "--seed", "0", "--out", "m",
      "--load-mode", "rows"], LOAD_MODES),
    (["eval", "--real", "r.csv", "--gen", "g.csv", "--load-mode", "rows"],
     LOAD_MODES)], ids=["train-lambda-kind", "train-load-mode",
                        "eval-load-mode"])
def test_choices_are_the_checked_names(capsys, argv, choices):
    """A flag's choices are the names its setting is checked against;
    any other value is a usage error that lists them."""
    assert run(*argv) == 1
    assert f"(choose from {', '.join(map(repr, choices))})" in \
        capsys.readouterr().err


# every option of the train and sampling verbs but --help:
# dest -> (option strings, type, default, choices, required)
OPTIONS = {
    "train": {
        "alpha_b": (("--alpha-b",), float, None, None, False),
        "alpha_w": (("--alpha-w",), float, None, None, False),
        "batch_size": (("--batch-size",), int, None, None, False),
        "beta": (("--beta",), float, None, None, False),
        "config": (("--config",), None, None, None, False),
        "data": (("--data",), None, None, None, True),
        "delta": (("--delta",), float, None, None, False),
        "epochs": (("--epochs",), int, None, None, False),
        "head_hidden": (("--head-hidden",), int, None, None, False),
        "hidden_dim": (("--hidden-dim",), int, None, None, False),
        "lambda_kind": (("--lambda-kind",), None, None,
                        ("constant", "linear-ramp", "late-gate"), False),
        "latent_dim": (("--latent-dim",), int, None, None, False),
        "load_mode": (("--load-mode",), None, "blocks",
                      ("blocks", "sliding"), False),
        "lr": (("--lr",), float, None, None, False),
        "n_experts": (("--k",), int, None, None, False),
        "normalize": (("--normalize", "--no-normalize"), None, True, None,
                      False),
        "out": (("--out",), None, None, None, True),
        "quiet": (("--quiet",), None, False, None, False),
        "report": (("--report",), None, None, None, False),
        "seed": (("--seed",), int, None, None, True),
        "seq_len": (("--seq-len",), int, None, None, False),
        "stride": (("--stride",), int, 1, None, False),
    },
    "sample": {
        "checkpoint": (("--checkpoint",), None, None, None, True),
        "gamma": (("--gamma",), float, 1.0, None, False),
        "n": (("--n",), int, None, None, True),
        "out": (("--out",), None, None, None, True),
        "seed": (("--seed",), int, None, None, True),
        "steps": (("--steps",), int, 100, None, False),
    },
}
OPTIONS["impute"] = OPTIONS["forecast"] = {
    "checkpoint": (("--checkpoint",), None, None, None, True),
    "eta_g": (("--eta-g",), float, 1.0, None, False),
    "gamma": (("--gamma",), float, 1.0, None, False),
    "mask": (("--mask",), None, None, None, True),
    "observed": (("--observed",), None, None, None, True),
    "out": (("--out",), None, None, None, True),
    "seed": (("--seed",), int, None, None, True),
    "steps": (("--steps",), int, 100, None, False),
}


@pytest.mark.parametrize("verb", sorted(OPTIONS))
def test_options_are_unchanged(verb):
    """Every option string, dest, type, default, choice list and required
    setting of the verbs whose flags come from shared declarations."""
    sub = next(a for a in cli_module.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {a.dest: (tuple(a.option_strings), a.type, a.default,
                    a.choices and tuple(a.choices), a.required)
           for a in sub.choices[verb]._actions if a.dest != "help"}
    assert got == OPTIONS[verb]


# a value for each config-file setting, none of them its default, and
# another for each setting that has a train flag
FILE_VALUES = {
    "train": {"alpha_w": 0.25, "alpha_b": 0.125, "lambda_kind": "late-gate",
              "epochs": 7, "batch_size": 9, "lr": 0.5, "beta": 0.75,
              "wta_eps": 1e-05, "prob_floor": 0.001,
              "divergence_guard": 123.0, "n_experts": 3},
    "model": {"latent_dim": 5, "hidden_dim": 11, "head_hidden": 13,
              "dec_hidden": 17, "router_hidden": 19, "enc_layers": 3,
              "delta": 0.2},
}
FLAG_VALUES = {"--alpha-w": ("alpha_w", "0.5"),
               "--alpha-b": ("alpha_b", "0.0625"),
               "--lambda-kind": ("lambda_kind", "linear-ramp"),
               "--epochs": ("epochs", "2"),
               "--batch-size": ("batch_size", "3"),
               "--lr": ("lr", "0.25"), "--beta": ("beta", "0.5"),
               "--k": ("n_experts", "2"), "--latent-dim": ("latent_dim", "6"),
               "--hidden-dim": ("hidden_dim", "12"),
               "--head-hidden": ("head_hidden", "14"),
               "--delta": ("delta", "0.3")}


class TestSettingsTable:
    """Each config-file setting reaches its config field with the type of
    its default, and each train flag overrides the file."""

    def configs(self, tmp_path, *flags):
        ini = tmp_path / "run.ini"
        ini.write_text("".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for section, keys in FILE_VALUES.items()))
        args = cli_module.build_parser().parse_args(
            ["train", "--data", "d.csv", "--seed", "0", "--out", "m",
             "--config", str(ini), *flags])
        tcfg, mcfg = cli_module._configs(args)
        return {**vars(tcfg), **vars(mcfg)}

    def test_the_table_holds_every_setting_and_flag(self):
        assert {s: set(k) for s, k in cli_module.SETTINGS.items()} == \
            {s: set(k) for s, k in FILE_VALUES.items()}
        assert {(f, k) for keys in cli_module.SETTINGS.values()
                for k, f in keys.items() if f} == \
            {(f, k) for f, (k, _) in FLAG_VALUES.items()}

    @pytest.mark.parametrize("section,key", [
        (s, k) for s, keys in FILE_VALUES.items() for k in keys])
    def test_file_value_reaches_its_field(self, tmp_path, section, key):
        defaults = {**vars(TrainConfig()), **vars(ModelConfig())}
        got = self.configs(tmp_path)[key]
        assert got == FILE_VALUES[section][key] != defaults[key]
        assert type(got) is type(defaults[key])

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    def test_flag_overrides_the_file(self, tmp_path, flag):
        key, text = FLAG_VALUES[flag]
        values = self.configs(tmp_path, flag, text)
        assert str(values[key]) == text
        # and no other setting moves from its file value
        file_values = {k: v for keys in FILE_VALUES.values()
                       for k, v in keys.items()}
        assert {k: values[k] for k in file_values if k != key} == \
            {k: v for k, v in file_values.items() if k != key}


class TestTrainSampleEval:
    def test_train_produces_loadable_checkpoint(self, checkpoint):
        from prismflow.model import PrismFlowModel

        model = PrismFlowModel.load(checkpoint)
        assert model.cfg.seq_len == 8
        assert model.norm_shift is not None

    def test_sample_round_trip(self, tmp_path, checkpoint):
        out = str(tmp_path / "gen.csv")
        assert run("sample", "--checkpoint", checkpoint, "--n", "70",
                   "--steps", "5", "--seed", "3", "--out", out) == 0
        ds = load_csv_windows(out, mode="blocks")
        assert ds.windows.shape == (70, 8, 2)
        assert os.path.exists(out + ".meta.json")

    def test_eval_writes_report(self, tmp_path, data_csv, checkpoint):
        gen = str(tmp_path / "gen.csv")
        run("sample", "--checkpoint", checkpoint, "--n", "80", "--steps",
            "5", "--seed", "3", "--out", gen)
        report = str(tmp_path / "report.jsonl")
        assert run("eval", "--real", data_csv, "--gen", gen, "--metrics",
                   "disc,corr", "--out", report) == 0
        rows = [json.loads(line) for line in open(report)]
        names = {r.get("name") for r in rows}
        assert {"disc", "corr"} <= names

    def test_eval_hash_names_settings_not_paths(self, tmp_path, data_csv):
        """Byte-identical files in two directories give one config_hash; the
        first row still records the paths, and another seed another hash."""
        def hashes(where, *flags):
            where.mkdir(exist_ok=True)
            real, out = where / "real.csv", where / f"eval{len(flags)}.jsonl"
            real.write_bytes(open(data_csv, "rb").read())
            assert run("eval", "--real", str(real), "--gen", str(real),
                       "--metrics", "corr", "--out", str(out), *flags) == 0
            rows = [json.loads(line) for line in open(out)]
            assert rows[0]["resolved_config"]["real"] == str(real)
            return rows[1]["config_hash"]

        first = hashes(tmp_path / "a")
        assert hashes(tmp_path / "b") == first
        assert hashes(tmp_path / "b", "--seed", "1") != first

    def test_non_finite_lr_is_runtime_error(self, tmp_path, data_csv):
        out = tmp_path / "nan.ckpt"
        # one optimizer step over all 80 windows, so no later step can
        # trip over the non-finite parameters
        assert run("train", "--data", data_csv, "--seed", "0", "--epochs",
                   "1", "--batch-size", "80", "--lr", "nan", "--quiet",
                   "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("cut", [3, 10, 20, 300, -100, -1])
    def test_truncated_checkpoint_is_runtime_error(self, tmp_path,
                                                   checkpoint, cut):
        raw = open(checkpoint, "rb").read()
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(raw[:cut])
        assert run("sample", "--checkpoint", str(bad), "--n", "2",
                   "--steps", "2", "--seed", "0",
                   "--out", str(tmp_path / "x.csv")) == 2

    def test_checkpoint_with_trailing_bytes_is_runtime_error(self, tmp_path,
                                                             checkpoint):
        bad = tmp_path / "long.ckpt"
        bad.write_bytes(open(checkpoint, "rb").read() + b"\x00" * 8)
        assert run("sample", "--checkpoint", str(bad), "--n", "2",
                   "--steps", "2", "--seed", "0",
                   "--out", str(tmp_path / "x.csv")) == 2

    def test_negative_sample_count_is_runtime_error(self, tmp_path,
                                                    checkpoint, capsys):
        out = tmp_path / "x.csv"
        assert run("sample", "--checkpoint", checkpoint, "--n", "-1",
                   "--steps", "2", "--seed", "0", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_negative_epochs_is_runtime_error(self, tmp_path, data_csv,
                                              capsys):
        out = tmp_path / "neg.ckpt"
        assert run("train", "--data", data_csv, "--seed", "0", "--epochs",
                   "-1", "--quiet", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags,text,key", [
        (["--beta", "-1"], "", "beta"),
        ([], "[train]\nwta_eps = 0\n", "wta_eps")],
        ids=["beta-flag", "wta_eps-file"])
    def test_bad_wta_settings_fail_before_training(self, tmp_path, data_csv,
                                                   capsys, flags, text, key):
        """With no epoch to run, only the check up front can refuse them;
        the error names the key the user set."""
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", data_csv, "--config", str(cfg),
                   "--seed", "0", "--epochs", "0", "--quiet",
                   "--out", str(out), *flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("guard", ["0", "-5"])
    def test_non_positive_divergence_guard_fails_before_training(
            self, tmp_path, data_csv, capsys, guard):
        """Refused up front, so even a run of no epochs saves nothing."""
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[train]\ndivergence_guard = {guard}\n")
        out = tmp_path / "m.ckpt"
        for epochs in ("0", "1"):
            assert run("train", "--data", data_csv, "--config", str(cfg),
                       "--seed", "0", "--epochs", epochs, "--quiet",
                       "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert err == "error: divergence_guard must be > 0\n"
            assert not out.exists()

    @pytest.mark.parametrize("floor", ["-1", "0", "0.25", "0.9"])
    def test_prob_floor_outside_zero_to_one_over_k_fails_before_training(
            self, tmp_path, data_csv, capsys, floor):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[train]\nprob_floor = {floor}\n")
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", data_csv, "--config", str(cfg),
                   "--seed", "0", "--epochs", "1", "--k", "4",
                   "--quiet", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: prob_floor must be ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "[train]\nprob_floor = 0.1\n"],
                             ids=["default", "0.1"])
    def test_prob_floor_below_one_over_k_trains(self, tmp_path, data_csv,
                                                text):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", data_csv, "--config", str(cfg),
                   "--seed", "0", "--epochs", "1", "--k", "4",
                   "--hidden-dim", "16", "--latent-dim", "4", "--quiet",
                   "--out", str(out)) == 0
        assert PrismFlowModel.load(str(out)).n_experts == 4

    def test_overflowing_confidence_weight_fails_before_training(
            self, tmp_path, capsys):
        """beta * alpha_w / wta_eps past float range at K = 2 is one
        `error:` line naming the three settings, with no numpy warning
        from a step that ran."""
        data, out = str(tmp_path / "bimodal.csv"), tmp_path / "m.ckpt"
        assert run("gen-data", "--kind", "bimodal", "--n", "200",
                   "--seq-len", "32", "--channels", "1", "--seed", "0",
                   "--out", data) == 0
        capsys.readouterr()
        assert run("train", "--data", data, "--seed", "0", "--epochs", "2",
                   "--k", "2", "--beta", "1e308", "--alpha-w", "1e3",
                   "--quiet", "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: beta * alpha_w / wta_eps must be a finite "
                       "float with n_experts >= 2, got 1e+308 * 1000.0 / "
                       "1e-08"]
        assert not out.exists()

    def test_overflowing_confidence_scores_fail_before_training(
            self, tmp_path, capsys):
        """A beta whose confidence scores pass float range at K = 2, with
        an alpha_w small enough to pass the weight rule, is one `error:`
        line, with no `warning:` line from a step that overflowed."""
        data, out = str(tmp_path / "bimodal.csv"), tmp_path / "m.ckpt"
        assert run("gen-data", "--kind", "bimodal", "--n", "200",
                   "--seq-len", "32", "--channels", "1", "--seed", "0",
                   "--out", data) == 0
        capsys.readouterr()
        assert run("train", "--data", data, "--seed", "0", "--epochs", "2",
                   "--k", "2", "--beta", "1.7e308", "--alpha-w", "1e-9",
                   "--quiet", "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: batch_size * beta * max(-log(wta_eps), "
                       "log1p(wta_eps)) must be a finite float with "
                       "n_experts >= 2, got 64, 1.7e+308 and 1e-08"]
        assert not out.exists()

    def test_overflowing_one_expert_scores_fail_before_training(
            self, tmp_path, capsys):
        """At K = 1 a beta and wta_eps whose batch of confidence scores
        passes float range is one `error:` line, with no `warning:` line
        from a step that overflowed."""
        data, out = str(tmp_path / "bimodal.csv"), tmp_path / "m.ckpt"
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nwta_eps = 1.0\n")
        assert run("gen-data", "--kind", "bimodal", "--n", "200",
                   "--seq-len", "32", "--channels", "1", "--seed", "0",
                   "--out", data) == 0
        capsys.readouterr()
        assert run("train", "--data", data, "--config", str(cfg), "--seed",
                   "0", "--epochs", "2", "--k", "1", "--beta", "1e308",
                   "--alpha-w", "1e-9", "--quiet", "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: batch_size * beta * log1p(wta_eps) must be a "
                       "finite float with n_experts = 1, got 64, 1e+308 and "
                       "1.0"]
        assert not out.exists()

    @pytest.mark.parametrize("case", ["lr", "guard", "router"])
    def test_an_overflow_the_data_decides_is_one_error_line(
            self, tmp_path, data_csv, capsys, case):
        """Settings that pass the range rule but overflow on the data: a
        huge `lr`; a guard near float max, under which Adam's second
        moment overflowed and froze the parameters; and a run whose last
        update left `router.W0` non-finite, which wrote a checkpoint that
        `load` refuses. Each is one `error:` line, with no `warning:` line
        and no checkpoint."""
        cfg, out = tmp_path / "run.ini", tmp_path / "m.ckpt"
        flags = ["--data", data_csv, "--seed", "0", "--epochs", "1"]
        if case == "lr":
            cfg.write_text("")
            flags += ["--k", "2", "--lr", "1e100"]
        elif case == "guard":
            cfg.write_text("[train]\ndivergence_guard = 1e308\n")
            flags += ["--k", "2", "--alpha-w", "1e300"]
        else:
            data = str(tmp_path / "sines.csv")
            assert run("gen-data", "--kind", "sines", "--n", "24",
                       "--seq-len", "8", "--channels", "1", "--seed", "0",
                       "--out", data) == 0
            cfg.write_text("[train]\nalpha_w = 1e-8\nalpha_b = 1e150\n"
                           "beta = 1e8\nwta_eps = 1e150\n"
                           "prob_floor = 5e-324\ndivergence_guard = 1.7e308\n"
                           "batch_size = 64\n[model]\ndec_hidden = 8\n"
                           "router_hidden = 8\n")
            flags = ["--data", data, "--seed", "0", "--epochs", "1", "--k",
                     "3", "--lr", "1e300", "--hidden-dim", "8",
                     "--latent-dim", "2"]
        capsys.readouterr()
        assert run("train", *flags, "--config", str(cfg), "--quiet",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()

    def test_train_report_holds_one_json_line_per_row(self, tmp_path,
                                                      data_csv, monkeypatch):
        """The raw `--report` file: the `resolved_config` row, then each
        row `fit` returned, one per epoch with its `wall_time`, each one
        `json.dumps` line."""
        returned, original = [], cli_module.fit

        def recorded(*args, **kwargs):
            model, rows = original(*args, **kwargs)
            returned.extend(rows)
            return model, rows

        monkeypatch.setattr(cli_module, "fit", recorded)
        report = tmp_path / "train.jsonl"
        assert run("train", "--data", data_csv, "--seed", "0", "--epochs",
                   "3", "--batch-size", "32", "--hidden-dim", "16",
                   "--latent-dim", "4", "--quiet", "--out",
                   str(tmp_path / "m.ckpt"), "--report", str(report)) == 0
        *lines, last = report.read_bytes().decode("utf-8").split("\n")
        assert last == ""
        config, *epochs = map(json.loads, lines)
        assert list(config) == ["resolved_config"]
        assert config["resolved_config"]["report"] == str(report)
        assert [row["epoch"] for row in epochs] == [0, 1, 2]
        assert all(row["wall_time"] > 0 for row in epochs)
        assert lines == [json.dumps(row) for row in [config, *returned]]

    def test_missing_checkpoint_is_runtime_error(self, tmp_path):
        assert run("sample", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--n", "2", "--steps", "2", "--seed", "0",
                   "--out", str(tmp_path / "x.csv")) == 2

    def test_config_file_sets_training_options(self, tmp_path, data_csv):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nepochs = 1\nn_experts = 2\n")
        out = str(tmp_path / "m.ckpt")
        assert run("train", "--data", data_csv, "--config", str(cfg),
                   "--seed", "0", "--hidden-dim", "16", "--latent-dim", "4",
                   "--quiet", "--out", out) == 0
        assert PrismFlowModel.load(out).n_experts == 2

    @pytest.mark.parametrize("text", [
        "[train]\nepochs = abc\n",
        "[model]\ndelta = fast\n",
        "[train]\nepoch = 1\n",
        "[model]\nn_experts = 3\n",
        "[train]\nepochs = 1\nwta_updates_encoder = true\n",
        "epochs = 1\n",
        "[train]\nlr = 1%\n",
    ])
    def test_bad_config_file_is_runtime_error(self, tmp_path, data_csv,
                                              capsys, text):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", data_csv, "--config", str(cfg),
                   "--seed", "0", "--quiet", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("text,section", [
        ("[trian]\nepochs = abc\n[sampler]\nsteps = x\n", "trian"),
        ("[train]\nepochs = 1\n[sampler]\nsteps = 3\n", "sampler"),
        ("[model]\ndelta = 0.1\n[Train]\nepochs = 1\n", "Train"),
        ("[DEFAULT]\nepochs = abc\n", "DEFAULT")],
        ids=["misspelled", "sampler", "case", "default"])
    def test_unknown_config_section_is_runtime_error(self, tmp_path, data_csv,
                                                     capsys, text, section):
        """A section other than [train] and [model] would drop every
        setting under it; it is refused, by name, before training."""
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", data_csv, "--config", str(cfg),
                   "--seed", "0", "--epochs", "1", "--quiet",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (f"error: {cfg}: unknown section "
                                           f"[{section}]\n")
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["drop", "reshape", "extra", "dims"])
    def test_checkpoint_with_bad_blocks_is_runtime_error(
            self, tmp_path, checkpoint, capsys, damage):
        header, blocks = load_checkpoint(checkpoint)
        if damage == "drop":
            del blocks["decoder.W0"]
        elif damage == "reshape":
            blocks["expert1.S"] = blocks["expert1.S"][:, :-1]
        elif damage == "extra":
            blocks["expert4.S"] = blocks["expert0.S"]
        else:
            header["mlp_dims"]["router"][-1] = 5
        bad = str(tmp_path / "bad.ckpt")
        save_checkpoint(bad, header, blocks)
        assert run("sample", "--checkpoint", bad, "--n", "2", "--steps",
                   "2", "--seed", "0", "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRefusedBeforeWork:
    """A request that cannot run fails with exit 2 before any work: no
    metric printed, no sample drawn, no output written."""

    def check_refused(self, capsys, argv, out, err):
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {err}")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("metrics,flags,gen,err", [
        ("corr,bogus", [], (80, 24), "unknown metric 'bogus'"),
        ("corr,spectral", ["--rank", "0"], (80, 24), "DMD needs rank >= 1"),
        ("corr,spectral", ["--delay", "30"], (80, 24), "need S >= delay+2"),
        ("corr,pred,disc", [], (80, 24),
         "disc needs real and generated windows"),
        ("corr,disc", [], (10, 32), "disc needs at least 64 windows"),
        ("corr,spectral,corr", [], (80, 32), "metric 'corr' requested twice")],
        ids=["name", "rank", "delay", "shape", "count", "twice"])
    def test_eval_checks_every_metric_first(self, tmp_path, capsys, metrics,
                                            flags, gen, err):
        """Real (80, 32, 1) against generated (n, S, 1) windows."""
        paths = {}
        for name, (n, seq_len) in (("real", (80, 32)), ("gen", gen)):
            paths[name] = str(tmp_path / f"{name}.csv")
            assert run("gen-data", "--kind", "sines", "--n", str(n),
                       "--seq-len", str(seq_len), "--channels", "1",
                       "--seed", "0", "--out", paths[name]) == 0
        capsys.readouterr()
        out = tmp_path / "report.jsonl"
        self.check_refused(capsys, [
            "eval", "--real", paths["real"], "--gen", paths["gen"],
            "--metrics", metrics, "--out", str(out), *flags], out, err)

    @pytest.mark.parametrize("metrics,err", [
        ("bogus", "unknown metric 'bogus'"),
        ("corr,corr", "metric 'corr' requested twice")])
    def test_eval_refuses_names_before_reading(self, tmp_path, capsys,
                                               monkeypatch, metrics, err):
        paths = []
        for name in ("real", "gen"):
            paths.append(str(tmp_path / f"{name}.csv"))
            save_csv_windows(np.zeros((2, 4, 1)), paths[-1])

        def read(path, **kwargs):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli_module, "load_csv_windows", read)
        out = tmp_path / "report.jsonl"
        self.check_refused(capsys, [
            "eval", "--real", paths[0], "--gen", paths[1], "--metrics",
            metrics, "--out", str(out)], out, err)

    @pytest.mark.parametrize("verb,flag", [
        ("sample", "--gamma"), ("impute", "--gamma"), ("impute", "--eta-g"),
        ("forecast", "--gamma"), ("forecast", "--eta-g")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sampler_settings(self, tmp_path, checkpoint, capsys,
                                         verb, flag, value):
        out = tmp_path / "x.csv"
        argv = [verb, "--checkpoint", checkpoint, "--steps", "2", "--seed",
                "0", "--out", str(out), flag, value]
        if verb == "sample":
            argv += ["--n", "2"]
        else:
            obs, mask = str(tmp_path / "obs.csv"), str(tmp_path / "mask.csv")
            save_csv_windows(np.zeros((2, 8, 2)), obs)
            save_csv_windows(np.ones((2, 8, 2)), mask)
            argv += ["--observed", obs, "--mask", mask]
        key = flag[2:].replace("-", "_")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check_refused(capsys, argv, out, f"{key} must be finite")


    def test_dmd_checks_both_sets_before_either_dmd(self, tmp_path, capsys,
                                                    monkeypatch):
        """Real windows of S=64 against generated ones of S=8 at delay 8:
        the generated set is refused before the real-side DMD runs."""
        paths = {}
        for name, n, seq_len in (("real", 200, 64), ("gen", 10, 8)):
            paths[name] = str(tmp_path / f"{name}.csv")
            assert run("gen-data", "--kind", "bimodal", "--n", str(n),
                       "--seq-len", str(seq_len), "--f-low", "2",
                       "--f-high", "3", "--seed", "0",
                       "--out", paths[name]) == 0
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli_module, "exact_dmd",
                            lambda *a, **k: calls.append(1))
        out = tmp_path / "dmd.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check_refused(capsys, [
                "dmd", "--real", paths["real"], "--gen", paths["gen"],
                "--rank", "10", "--delay", "8", "--out", str(out)], out,
                "need S >= delay+2, got S=8, delay=8")
        assert calls == []

    def test_dmd_needs_a_snapshot_pair(self, tmp_path, capsys, monkeypatch):
        """At S = delay+1 a window holds no snapshot pair: `eval` refuses
        before the disc net trains, and `dmd` before either DMD runs."""
        data = str(tmp_path / "data.csv")
        assert run("gen-data", "--kind", "sines", "--n", "80", "--seq-len",
                   "9", "--channels", "1", "--seed", "0", "--out", data) == 0
        capsys.readouterr()
        calls = []
        for name in ("discriminative_score", "exact_dmd"):
            monkeypatch.setattr(cli_module, name,
                                lambda *a, name=name, **k: calls.append(name))
        err = "need S >= delay+2, got S=9, delay=8"
        report = tmp_path / "report.jsonl"
        self.check_refused(capsys, [
            "eval", "--real", data, "--gen", data, "--metrics",
            "disc,spectral", "--delay", "8", "--out", str(report)], report,
            err)
        out = tmp_path / "dmd.csv"
        self.check_refused(capsys, [
            "dmd", "--real", data, "--gen", data, "--delay", "8",
            "--out", str(out)], out, err)
        assert calls == []

    @pytest.mark.parametrize("inputs", [("--real",), ("--gen",),
                                        ("--real", "--gen")])
    def test_dmd_refuses_experts_with_windows(self, tmp_path, checkpoint,
                                              data_csv, capsys, inputs):
        """--experts with --real or --gen is ambiguous: refused, not half
        served."""
        out = tmp_path / "dmd.csv"
        argv = ["dmd", "--experts", checkpoint, "--out", str(out)]
        for flag in inputs:
            argv += [flag, data_csv]
        capsys.readouterr()
        self.check_refused(capsys, argv, out,
                           "dmd takes --experts or --real and --gen, not both")


class TestCheckpointContract:
    """What a checkpoint declares is checked on load: normalization stats,
    parameter values and the sizes that the layout is derived from."""

    def rewrite(self, tmp_path, checkpoint, edit):
        header, blocks = load_checkpoint(checkpoint)
        edit(header, blocks)
        bad = str(tmp_path / "bad.ckpt")
        save_checkpoint(bad, header, blocks)
        return bad

    def sample(self, path, out):
        return run("sample", "--checkpoint", path, "--n", "2", "--steps",
                   "2", "--seed", "0", "--out", out)

    @pytest.mark.parametrize("key,value", [
        ("scale", [float("nan"), 1.0]), ("shift", [0.0, float("inf")]),
        ("scale", [0.0, 1.0]), ("scale", [1.0, 1.0, 1.0]),
        ("shift", [0.5])])
    def test_bad_normalization_is_runtime_error(self, tmp_path, checkpoint,
                                                capsys, key, value):
        bad = self.rewrite(tmp_path, checkpoint,
                           lambda h, b: h["normalization"].update({key: value}))
        out = tmp_path / "x.csv"
        assert self.sample(bad, str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["encoder.W1", "router.b0", "expert1.R"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_block_is_named(self, tmp_path, checkpoint, capsys,
                                       name, value):
        def poison(header, blocks):
            blocks[name].reshape(-1)[1] = value

        bad = self.rewrite(tmp_path, checkpoint, poison)
        out = tmp_path / "x.csv"
        assert self.sample(bad, str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: block {name!r} holds a non-finite value\n")
        for verb in (["dmd", "--experts", bad, "--out", str(out)],
                     ["impute", "--checkpoint", bad, "--observed", bad,
                      "--mask", bad, "--seed", "0", "--out", str(out)]):
            assert run(*verb) == 2
        assert not out.exists()

    @pytest.mark.parametrize("consistent_dims", [False, True])
    def test_inflated_sizes_fail_before_allocating(self, tmp_path,
                                                   checkpoint, capsys,
                                                   consistent_dims):
        """A header that declares hidden_dim=3000 over small blocks exits
        2 without allocating the 3000-wide model it describes."""
        def inflate(header, blocks):
            header["model_config"]["hidden_dim"] = 3000
            if consistent_dims:
                mc = dict(header["model_config"],
                          time_freqs=tuple(header["model_config"]
                                           ["time_freqs"]))
                header["mlp_dims"] = param_layout(ModelConfig(**mc))[0]

        bad = self.rewrite(tmp_path, checkpoint, inflate)
        code, peak = traced_peak(self.sample, bad, str(tmp_path / "x.csv"))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("flag,value,key", [
        ("--hidden-dim", "0", "hidden_dim"), ("--hidden-dim", "-3",
                                              "hidden_dim"),
        ("--delta", "nan", "delta"), ("--delta", "inf", "delta"),
        ("--head-hidden", "0", "head_hidden"),
        ("--latent-dim", "0", "latent_dim"), ("--k", "0", "n_experts")])
    def test_bad_model_settings_fail_before_training(self, tmp_path,
                                                     data_csv, capsys, flag,
                                                     value, key):
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", data_csv, "--seed", "0", "--epochs",
                   "1", "--out", str(out), flag, value) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {key} must be ")
        assert captured.err.count("\n") == 1
        assert "epoch" not in captured.out
        assert not out.exists()


class TestDataFiles:
    """train, eval and dmd refuse data they cannot use before any work;
    every verb turns an undecodable CSV into exit 2."""

    def verbs(self, bad, good, checkpoint, out):
        return {
            "train": ["train", "--data", bad, "--seed", "0", "--epochs", "1",
                      "--quiet", "--out", out],
            "eval": ["eval", "--real", good, "--gen", bad, "--metrics",
                     "corr", "--out", out],
            "dmd": ["dmd", "--real", bad, "--gen", good, "--rank", "4",
                    "--out", out],
            "impute": ["impute", "--checkpoint", checkpoint, "--observed",
                       bad, "--mask", bad, "--seed", "0", "--out", out],
            "forecast": ["forecast", "--checkpoint", checkpoint,
                         "--observed", bad, "--mask", bad, "--seed", "0",
                         "--out", out],
        }

    @pytest.mark.parametrize("verb", ["train", "eval", "dmd", "impute",
                                      "forecast"])
    def test_invalid_utf8_is_runtime_error(self, tmp_path, data_csv,
                                           checkpoint, capsys, verb):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"c0\n\xff\xfe\n")
        out = tmp_path / "out"
        argv = self.verbs(str(bad), data_csv, checkpoint, str(out))[verb]
        assert run(*argv) == 2
        assert capsys.readouterr().err == (f"error: {bad}: not valid UTF-8 "
                                           f"at byte 3\n")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["train", "eval", "dmd"])
    @pytest.mark.parametrize("content", ["c0,c1\n", "c0,c1\n\n\n"])
    def test_zero_windows_is_runtime_error(self, tmp_path, data_csv,
                                           checkpoint, capsys, verb,
                                           content):
        empty = tmp_path / "empty.csv"
        empty.write_text(content)
        out = tmp_path / "out"
        argv = self.verbs(str(empty), data_csv, checkpoint, str(out))[verb]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {empty}: holds no windows\n"
        assert not out.exists()

    @pytest.mark.parametrize("metric,seq_len,channels,code", [
        ("disc", 6, 2, 2), ("disc", 8, 1, 2), ("pred", 8, 1, 2),
        ("corr", 8, 1, 2), ("pred", 6, 2, 0), ("corr", 6, 2, 0),
        ("spectral", 6, 1, 0)])
    def test_eval_shape_contract(self, tmp_path, data_csv, capsys, metric,
                                 seq_len, channels, code):
        """disc needs equal (S, D), pred and corr equal D, against the
        (80, 8, 2) real windows; a refusal names both shapes."""
        gen = str(tmp_path / "gen.csv")
        assert run("gen-data", "--kind", "sines", "--n", "80", "--seq-len",
                   str(seq_len), "--channels", str(channels), "--seed", "1",
                   "--out", gen) == 0
        out = tmp_path / "report.jsonl"
        assert run("eval", "--real", data_csv, "--gen", gen, "--metrics",
                   metric, "--rank", "2", "--out", str(out)) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"error: {metric} needs real and "
                                  f"generated windows of equal ")
            assert f"(80, 8, 2) and generated (80, {seq_len}, {channels})" \
                in err
            assert err.count("\n") == 1
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("verb", ["train", "eval", "dmd"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_data_is_runtime_error(self, tmp_path, data_csv,
                                              checkpoint, capsys, verb, cell):
        ds = load_csv_windows(data_csv, mode="blocks")
        ds.windows[3, 5, 1] = float(cell)
        bad = str(tmp_path / "bad.csv")
        save_csv_windows(ds.windows, bad)
        out = tmp_path / "out"
        argv = self.verbs(bad, data_csv, checkpoint, str(out))[verb]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {bad}: window 3 holds a non-finite "
                                f"value\n")
        assert captured.out == ""
        assert not out.exists()

    def test_impute_accepts_nan_where_unobserved(self, tmp_path, checkpoint):
        mask = np.zeros((2, 8, 2))
        mask[:, :4] = 1.0
        obs = np.where(mask > 0, 0.5, np.nan)
        obs_path, mask_path = str(tmp_path / "o.csv"), str(tmp_path / "m.csv")
        save_csv_windows(obs, obs_path)
        save_csv_windows(mask, mask_path)
        out = str(tmp_path / "x.csv")
        assert run("impute", "--checkpoint", checkpoint, "--observed",
                   obs_path, "--mask", mask_path, "--steps", "3", "--seed",
                   "0", "--out", out) == 0
        got = load_csv_windows(out, mode="blocks").windows
        assert np.all(np.isfinite(got))

    def test_zero_stride_is_runtime_error(self, tmp_path, data_csv, capsys):
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", data_csv, "--load-mode", "sliding",
                   "--seq-len", "4", "--stride", "0", "--seed", "0",
                   "--quiet", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestWarningLines:
    """A library warning raised during a verb is one `warning:` line on
    stderr, also with warnings turned into errors, and leaves the exit
    code and the output as they are."""

    def run_with_warnings_as_errors(self, capsys, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(*argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured.err.splitlines()

    def test_dmd_rank_reduction(self, tmp_path, capsys):
        real, gen = str(tmp_path / "real.csv"), str(tmp_path / "gen.csv")
        # two tones: their delay-8 snapshots have rank 4
        assert run("gen-data", "--kind", "bimodal", "--n", "40", "--seq-len",
                   "32", "--channels", "1", "--f-low", "2", "--f-high", "8",
                   "--seed", "1", "--out", real) == 0
        save_csv_windows(RngStream(2).generator().standard_normal((40, 32, 1)),
                         gen)
        out = tmp_path / "dmd.csv"
        code, err = self.run_with_warnings_as_errors(
            capsys, "dmd", "--real", real, "--gen", gen, "--rank", "10",
            "--delay", "8", "--out", str(out))
        assert code == 0
        assert err == ["warning: DMD rank reduced from 8 to 4 "
                       "(rank-deficient snapshots)"]
        assert out.exists()

    def test_zero_variance_channel(self, tmp_path, capsys):
        real, gen = str(tmp_path / "real.csv"), str(tmp_path / "gen.csv")
        windows = RngStream(3).generator().standard_normal((10, 8, 2))
        save_csv_windows(windows, real)
        windows[:, :, 1] = 0.5
        save_csv_windows(windows, gen)
        out = tmp_path / "report.jsonl"
        code, err = self.run_with_warnings_as_errors(
            capsys, "eval", "--real", real, "--gen", gen, "--metrics", "corr",
            "--load-mode", "blocks", "--out", str(out))
        assert code == 0
        assert err == ["warning: zero-variance channel: correlations set "
                       "to 0"]
        assert out.exists()

    def test_warning_then_error_keeps_exit_code(self, tmp_path, capsys,
                                                monkeypatch):
        def warn_then_fail(args):
            warnings.warn("first")
            raise cli_module.PrismFlowError("then this")

        monkeypatch.setattr(cli_module, "cmd_dmd", warn_then_fail)
        code, err = self.run_with_warnings_as_errors(
            capsys, "dmd", "--experts", "x.ckpt", "--out", "x.csv")
        assert (code, err) == (2, ["warning: first", "error: then this"])


class TestParserPerProcess:
    """`run_command` builds its parser on its first call in a process and
    reuses it, and looks each verb's function up on the module at call
    time; `build_parser` still makes a fresh parser."""

    def test_repeated_calls_build_no_parser(self, tmp_path, monkeypatch,
                                            capsys):
        run("diagnose", "--n", "10")  # builds the process's parser if need be
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run("diagnose", "--n", "10") == 0
        assert run("gen-data", "--kind", "sines", "--n", "2", "--out",
                   str(tmp_path / "d.csv")) == 0
        assert run("bogus") == 1
        assert built == []
        first, second = cli_module.build_parser(), cli_module.build_parser()
        assert first is not second and {first, second} <= set(built)

    @pytest.mark.parametrize("verb", ["diagnose", "impute", "forecast"])
    def test_a_verb_patched_after_the_first_call_runs(self, monkeypatch,
                                                      capsys, verb):
        assert run("diagnose", "--n", "10") == 0
        calls = []
        monkeypatch.setattr(cli_module, f"cmd_{verb}", calls.append)
        argv = {"diagnose": ["--n", "3"]}.get(verb, [
            "--checkpoint", "c", "--observed", "o", "--mask", "m",
            "--seed", "0", "--out", "x"])
        assert run(verb, *argv) == 0
        assert [args.verb for args in calls] == [verb]

    def test_a_verb_patched_before_the_parser_is_built_runs(self, capsys):
        """Dispatch reads the verb's name, not the function the parser was
        built with, so a patch in place when the parser is built does not
        outlive itself."""
        cli_module._parser.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_module, "cmd_diagnose", lambda args: print("stub"))
            assert run("diagnose", "--n", "3") == 0
            assert capsys.readouterr().out == "stub\n"
        assert run("diagnose", "--n", "10") == 0
        assert "energy gap" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,code", [(["--help"], 0),
                                           (["sample", "--help"], 0),
                                           (["train"], 1), (["bogus"], 1),
                                           (["diagnose", "--n", "x"], 1)])
    def test_usage_outcomes_hold_on_a_second_call(self, capsys, argv, code):
        outcomes = []
        for _ in range(2):
            outcomes.append((run(*argv), capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == code
        captured = outcomes[0][1]
        assert "usage: prismflow" in (captured.out if code == 0
                                      else captured.err)
        assert "Traceback" not in captured.err


class TestSeedRange:
    """A seed is one signed 64-bit Philox key word: one outside
    [-2**63, 2**63) is refused with one error line and no numpy warning,
    and every seed in range draws its own numbers."""

    @pytest.mark.parametrize("seed", [2**64, -2**63 - 1, 2**64 - 1, 2**63,
                                      2**63 + 5])
    @pytest.mark.parametrize("verb", ["gen-data", "train", "sample",
                                      "diagnose"])
    def test_out_of_range_seed_is_refused(self, tmp_path, request, capsys,
                                          verb, seed):
        out = tmp_path / "out"
        argv = {
            "gen-data": ["gen-data", "--kind", "sines", "--n", "4",
                         "--out", str(out)],
            "train": ["train", "--epochs", "1", "--quiet", "--out", str(out)],
            "sample": ["sample", "--n", "2", "--steps", "2",
                       "--out", str(out)],
            "diagnose": ["diagnose", "--n", "10"]}[verb]
        if verb == "train":
            argv += ["--data", request.getfixturevalue("data_csv")]
        if verb == "sample":
            argv += ["--checkpoint", request.getfixturevalue("checkpoint")]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, f"--seed={seed}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: seed must be in [-2**63, 2**63), "
                                f"got {seed}\n")
        assert not out.exists()

    def test_seeds_at_the_ends_of_the_range_differ(self, tmp_path):
        texts = []
        for seed in (-2**63, 2**63 - 1, -1):
            out = tmp_path / f"{seed}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run("gen-data", "--kind", "sines", "--n", "4",
                           "--seed", str(seed), "--out", str(out)) == 0
            texts.append(out.read_text())
        assert len(set(texts)) == 3


class TestHugeSamplerSettings:
    """A finite setting whose products overflow is a runtime error at the
    step where the state stops being finite, with no numpy warning."""

    @pytest.mark.parametrize("verb,setting", [
        ("sample", "--gamma=1e308"), ("impute", "--eta-g=1e308"),
        ("forecast", "--gamma=-1e308")])
    def test_exits_2_with_one_line(self, tmp_path, checkpoint, capsys, verb,
                                   setting):
        # every residual entry is near 4, so gamma * residual overflows
        model = PrismFlowModel.load(checkpoint)
        model.decoder.biases[-1][:] = 4.0
        loud = str(tmp_path / "loud.ckpt")
        model.save(loud)
        out = tmp_path / "x.csv"
        argv = [verb, "--checkpoint", loud, "--steps", "3", "--seed", "0",
                "--out", str(out), setting]
        if verb == "sample":
            argv += ["--n", "2"]
        else:
            obs, mask = str(tmp_path / "obs.csv"), str(tmp_path / "mask.csv")
            save_csv_windows(np.zeros((2, 8, 2)), obs)
            save_csv_windows(np.ones((2, 8, 2)), mask)
            argv += ["--observed", obs, "--mask", mask]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: non-finite state")
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestConditionalVerbs:
    def write(self, tmp_path, obs, mask):
        obs_path = str(tmp_path / "obs.csv")
        mask_path = str(tmp_path / "mask.csv")
        save_csv_windows(obs, obs_path)
        save_csv_windows(mask, mask_path)
        return obs_path, mask_path

    def impute(self, checkpoint, obs_path, mask_path, out, *extra):
        return run("impute", "--checkpoint", checkpoint, "--observed",
                   obs_path, "--mask", mask_path, "--steps", "5", "--seed",
                   "1", "--out", out, *extra)

    def test_impute_clamps_observed(self, tmp_path, checkpoint):
        obs = np.zeros((2, 8, 2))
        obs[:, :, 0] = 0.7
        mask = np.zeros((2, 8, 2))
        mask[:, ::2, 0] = 1.0
        obs_path, mask_path = self.write(tmp_path, obs, mask)
        out = str(tmp_path / "imputed.csv")
        assert self.impute(checkpoint, obs_path, mask_path, out) == 0
        ds = load_csv_windows(out, mode="blocks")
        np.testing.assert_allclose(ds.windows[:, ::2, 0], 0.7, atol=1e-9)

    def test_window_i_is_a_one_window_call_on_stream_i(self, tmp_path,
                                                       checkpoint):
        gen = RngStream(5).generator()
        obs = gen.uniform(-1.0, 1.0, (3, 8, 2))
        mask = gen.uniform(size=(3, 8, 2)) < 0.4
        mask[:, 0, 0] = True
        obs_path, mask_path = self.write(tmp_path, obs, mask.astype(float))
        out = str(tmp_path / "forecast.csv")
        assert run("forecast", "--checkpoint", checkpoint, "--observed",
                   obs_path, "--mask", mask_path, "--steps", "5",
                   "--eta-g", "0.5", "--seed", "4", "--out", out) == 0
        got = load_csv_windows(out, mode="blocks").windows
        model = PrismFlowModel.load(checkpoint)
        cfg = SamplerConfig(steps=5, eta_g=0.5, mode="forecasting")
        y = (obs - model.norm_shift) / model.norm_scale
        for i in range(3):
            want = generate_conditional(model, ConditionMask(mask[i], y[i]),
                                        cfg, RngStream(4, i))[0]
            want = want * model.norm_scale + model.norm_shift
            np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cell", [float("nan"), 0.7, 2.0, -1.0,
                                      float("inf")])
    @pytest.mark.parametrize("verb", ["impute", "forecast"])
    def test_mask_cells_are_exactly_0_or_1(self, tmp_path, checkpoint,
                                           capsys, cell, verb):
        obs, mask = np.zeros((3, 8, 2)), np.ones((3, 8, 2))
        mask[2, 4, 1] = cell
        obs_path, mask_path = self.write(tmp_path, obs, mask)
        out = tmp_path / "x.csv"
        assert run(verb, "--checkpoint", checkpoint, "--observed", obs_path,
                   "--mask", mask_path, "--steps", "2", "--seed", "0",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {mask_path}: window 2 holds a mask cell that is not "
            f"0 or 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["counts", "shape", "no_windows",
                                      "empty_mask"])
    def test_bad_conditional_inputs_are_runtime_errors(
            self, tmp_path, checkpoint, capsys, case):
        obs, mask = np.zeros((3, 8, 2)), np.ones((3, 8, 2))
        if case == "counts":
            mask = mask[:2]
        elif case == "shape":
            obs, mask = obs[:, :4], mask[:, :4]
        elif case == "empty_mask":
            mask[1] = 0.0
        obs_path, mask_path = self.write(tmp_path, obs, mask)
        if case == "no_windows":
            with open(obs_path, "w") as fh:
                fh.write("c0,c1\n")
        out = tmp_path / "x.csv"
        assert self.impute(checkpoint, obs_path, mask_path, str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestDmdVerb:
    def test_expert_spectra_export(self, tmp_path, checkpoint):
        out = str(tmp_path / "spectra.csv")
        assert run("dmd", "--experts", checkpoint, "--out", out) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "source,re,im,amplitude"
        # 4 experts x latent_dim 4 eigenvalues
        assert len(lines) == 1 + 4 * 4

    def test_real_vs_gen_overlap(self, tmp_path, data_csv):
        out = str(tmp_path / "dmd.csv")
        assert run("dmd", "--real", data_csv, "--gen", data_csv, "--rank",
                   "4", "--delay", "2", "--out", out) == 0
        text = open(out).read()
        assert "overlap,1.0" in text

    def test_every_cell_is_a_plain_float(self, tmp_path, data_csv,
                                         checkpoint):
        experts = str(tmp_path / "experts.csv")
        real_gen = str(tmp_path / "real_gen.csv")
        assert run("dmd", "--experts", checkpoint, "--out", experts) == 0
        assert run("dmd", "--real", data_csv, "--gen", data_csv, "--rank",
                   "4", "--delay", "2", "--out", real_gen) == 0
        for path in (experts, real_gen):
            for line in open(path).read().splitlines()[1:]:
                for cell in line.split(",")[1:]:
                    if cell:
                        float(cell)

    def test_requires_inputs(self, tmp_path):
        assert run("dmd", "--out", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("flag", ["--delay", "--rank"])
    def test_non_positive_delay_or_rank_is_runtime_error(
            self, tmp_path, data_csv, capsys, flag):
        out = tmp_path / "dmd.csv"
        assert run("dmd", "--real", data_csv, "--gen", data_csv, flag, "0",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestOutOfMemory:
    """A request too large to allocate exits 2 with one error line, not
    numpy's traceback. Each probe's first array takes a pebibyte or more,
    beyond a 47-bit user address space, so it fails at once and nothing
    is allocated."""

    @pytest.mark.parametrize("argv", [
        ("sample", "--n", str(10 ** 13)),
        ("gen-data", "--kind", "sines", "--n", str(10 ** 15)),
        ("gen-data", "--kind", "bimodal", "--n", str(10 ** 15)),
        ("diagnose", "--n", str(10 ** 13))],
        ids=["sample", "gen-sines", "gen-bimodal", "diagnose"])
    def test_exits_2_with_one_line(self, tmp_path, request, capsys, argv):
        out = tmp_path / "out.csv"
        if argv[0] != "diagnose":
            argv += ("--seed", "0", "--out", str(out))
        if argv[0] == "sample":
            argv += ("--checkpoint", request.getfixturevalue("checkpoint"))
        capsys.readouterr()
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestUnsizableCounts:
    """A count whose arrays numpy could not size at all (2**60 or more
    8-byte elements) exits 2 with one error line naming its flag, before
    anything is allocated."""

    @pytest.mark.parametrize("argv,key", [
        (("sample", "--n", str(10 ** 20)), "n * seq_len * channels"),
        (("sample", "--n", "2", "--steps", str(10 ** 20)), "steps"),
        (("gen-data", "--kind", "sines", "--n", str(10 ** 20)),
         "n * seq_len * channels"),
        (("gen-data", "--kind", "bimodal", "--n", str(10 ** 20)),
         "n * seq_len * channels")],
        ids=["sample-n", "sample-steps", "gen-sines", "gen-bimodal"])
    def test_exits_2_naming_the_flag(self, tmp_path, request, capsys, argv,
                                     key):
        out = tmp_path / "out.csv"
        argv += ("--seed", "0", "--out", str(out))
        if argv[0] == "sample":
            argv += ("--checkpoint", request.getfixturevalue("checkpoint"))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be < 2**60, got ")
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestDiagnoseVerb:
    def test_prints_energy_gap(self, capsys):
        assert run("diagnose", "--n", "2000", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "energy gap" in out

    @pytest.mark.parametrize("c", ["1e200", "-1e200", "1e154"])
    def test_overflowing_separation_is_refused(self, capsys, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("diagnose", f"--c={c}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: separation {float(c)} "
                                       f"overflows")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("c", ["2", "0"])
    def test_a_count_past_float_range_is_refused(self, capsys, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("diagnose", "--c", c, "--n", "1" + "0" * 400) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            "error: n * seq_len * channels must be < 2**60, got an integer "
            "of 402 digits\n"))

    def test_a_count_past_numpy_array_size_is_refused(self, capsys):
        """1e17 windows of 16 floats are 2**63 bytes or more, which numpy
        refuses to allocate at all."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("diagnose", "--n", "100000000000000000") == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            "error: n * seq_len * channels must be < 2**60, got "
            "1600000000000000000\n"))

    @pytest.mark.parametrize("flags", [("--n", "0"), ("--w", "2"),
                                       ("--c", "nan"), ("--c", "inf")])
    def test_bad_spec_is_runtime_error(self, capsys, flags):
        assert run("diagnose", *flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""



def pipeline_digests(tmp_path, monkeypatch):
    """SHA-256 of every file a tiny seeded pipeline writes, run in tmp_path
    on relative paths so headers and sidecars name the same files on every
    run; the training report without its wall times. Also checks that a
    CRLF rendering of the data trains to the same parameter blocks."""
    monkeypatch.chdir(tmp_path)
    train = ("--seed", "0", "--epochs", "3", "--batch-size", "16",
             "--hidden-dim", "16", "--latent-dim", "4", "--quiet")
    sample = ("--checkpoint", "model.ckpt", "--steps", "4")
    condition = (*sample, "--observed", "obs.csv", "--mask", "mask.csv")
    assert run("gen-data", "--kind", "bimodal", "--n", "32", "--seq-len",
               "32", "--channels", "2", "--seed", "0", "--out",
               "data.csv") == 0
    assert run("train", "--data", "data.csv", *train, "--out", "model.ckpt",
               "--report", "train.jsonl") == 0
    assert run("train", "--data", "data.csv", *train, "--k", "1", "--out",
               "k1.ckpt", "--report", "k1.jsonl") == 0
    assert run("sample", *sample, "--n", "8", "--seed", "1", "--out",
               "g1.csv") == 0
    assert run("sample", *sample, "--n", "8", "--gamma", "0", "--seed", "1",
               "--out", "g0.csv") == 0
    save_csv_windows(load_csv_windows("data.csv", mode="blocks").windows[:3],
                     "obs.csv")
    mask = np.zeros((3, 32, 2))
    mask[:, :16, 0] = 1.0
    save_csv_windows(mask, "mask.csv")
    assert run("impute", *condition, "--seed", "2", "--out", "imp.csv") == 0
    assert run("forecast", *condition, "--seed", "3", "--out", "fc.csv") == 0
    assert run("eval", "--real", "data.csv", "--gen", "g1.csv", "--metrics",
               "corr,spectral", "--out", "eval.jsonl") == 0
    assert run("dmd", "--real", "data.csv", "--gen", "g1.csv", "--out",
               "spectra.csv") == 0
    assert run("dmd", "--experts", "model.ckpt", "--out", "experts.csv") == 0
    for report in ("train.jsonl", "k1.jsonl"):
        rows = [json.loads(line) for line in open(report)]
        for row in rows:
            row.pop("wall_time", None)
        with open(report, "w") as fh:
            fh.write("\n".join(map(json.dumps, rows)) + "\n")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
               .hexdigest() for name in sorted(os.listdir(tmp_path))}
    with open("data.csv", "rb") as src, open("crlf.csv", "wb") as dst:
        dst.write(src.read().replace(b"\n", b"\r\n"))
    assert run("train", "--data", "crlf.csv", *train, "--out",
               "crlf.ckpt") == 0
    blocks = load_checkpoint("model.ckpt")[1]
    crlf = load_checkpoint("crlf.ckpt")[1]
    assert list(crlf) == list(blocks)
    assert all(crlf[k].tobytes() == blocks[k].tobytes() for k in blocks)
    return digests


# SHA-256 of each file `pipeline_digests` writes; `pred` and `disc` are
# left out, as their bits depend on the BLAS thread count (README)
CLI_PINS = {
    "data.csv": "3ecc858e894292381bc168ae99953eee2a26c69fd1318aa63b2afc0f87b300ab",
    "data.csv.labels": "7a8dc6344bbd2679ad5cfc6218b77d5df403cc83acedd38d4f9248b59290585c",
    "data.csv.meta.json": "22494e6c6ceb92dc0e8491b7f7a490b05075472d4044cc0765f32dc99b6c923d",
    "eval.jsonl": "960d6fd0f13c5804087c5621d6052c77ac2b54cc0136f27107f81b64ca578e06",
    "experts.csv": "80460d867b0eba935954fef63280dbb06c8c1d01df18be564f9cc214b4d52b05",
    "experts.csv.meta.json": "b4d7603c9f23dfcb0b1513d75b0fe23f404e994ce86d7782b91b1e1d73b29511",
    "fc.csv": "5ef61766b141484f2b0b60230a186e0a0ac6c3d142631d29fb3afbff53ff782f",
    "fc.csv.meta.json": "370c3caa1d9bec5b8c2e7711aa1c9a2dbed6fe35f8142096e7668d84714b75c3",
    "g0.csv": "eca61fa8b68f131913e9c5129f4afd279ff35f84c632c886ff97c2dec909e0bb",
    "g0.csv.meta.json": "270966ef1ee7aa0053d1d6c870427edcc1548b48cccf95d408646448c167ba60",
    "g1.csv": "a7bf32c42d726f046762c0368d0595c35dc3ba21667473a783459c318143a0c1",
    "g1.csv.meta.json": "3722437b77cc4d37122f326c276f98de0a416c6e8f7e03e724d241b9f003d7d3",
    "imp.csv": "67a083f9e3ab4039cad342dc74829dba4b1f9db6eaa76e4116ab4519c27371e3",
    "imp.csv.meta.json": "1672d6bfb7b7cf6855bf1d2a3ecbe3b52f2772997962ee36d8799b7586bddb9d",
    "k1.ckpt": "6b5eb7f33cc3097ce511319e2e4c5ff9bf1bdfa804b7bf628e9ceeeffeb93add",
    "k1.jsonl": "efe5bde00d3c2121baf386d2bf1093c4c011b2d219cae93fb87141134828c263",
    "mask.csv": "91edb4cb6f9a118960badf4f5c4789530b9622cada4802f3925b75cc32aa729b",
    "model.ckpt": "d586cd0767c15d9509978631752621333a1c8f84b05159d72d2847360f0e32e6",
    "obs.csv": "033eecc2495fc4048e78ff2fbacfece99016d89755cd5b72944a9e6fcf9fa680",
    "spectra.csv": "9731456a6eefaf84da7423e373b78632f96a69216c8d9c2cd61a160230929e93",
    "spectra.csv.meta.json": "6d28eac6f48f8568306c08fce6c1d4ff216273e3e2a2092f0de7039f52a10b7f",
    "train.jsonl": "03fb191659b7da019d0c55f7b0670ca8fe098bdda9f3a3ad431f669754552e8e",
}


def test_pipeline_outputs_are_pinned(tmp_path, monkeypatch):
    assert pipeline_digests(tmp_path, monkeypatch) == CLI_PINS
