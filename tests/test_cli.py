import json
import os

import numpy as np
import pytest

from prismflow.cli import run_command
from prismflow.datasets import load_csv_windows, save_csv_windows


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

    def test_unknown_verb(self):
        assert run("frobnicate") == 1


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
        from prismflow.model import PrismFlowModel

        assert PrismFlowModel.load(out).n_experts == 2


class TestConditionalVerbs:
    def test_impute_clamps_observed(self, tmp_path, checkpoint):
        obs = np.zeros((2, 8, 2))
        obs[:, :, 0] = 0.7
        mask = np.zeros((2, 8, 2))
        mask[:, ::2, 0] = 1.0
        obs_path = str(tmp_path / "obs.csv")
        mask_path = str(tmp_path / "mask.csv")
        save_csv_windows(obs, obs_path)
        save_csv_windows(mask, mask_path)
        out = str(tmp_path / "imputed.csv")
        assert run("impute", "--checkpoint", checkpoint, "--observed",
                   obs_path, "--mask", mask_path, "--steps", "5", "--seed",
                   "1", "--out", out) == 0
        ds = load_csv_windows(out, mode="blocks")
        np.testing.assert_allclose(ds.windows[:, ::2, 0], 0.7, atol=1e-9)


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


class TestDiagnoseVerb:
    def test_prints_energy_gap(self, capsys):
        assert run("diagnose", "--n", "2000", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "energy gap" in out
