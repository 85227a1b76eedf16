"""Truncated and bit-flipped checkpoints and CSVs through the CLI: every
verb must end with exit code 0, 1 or 2 and a one-line error, never a
traceback. Files that still parse after the damage are valid inputs, so
exit 0 is allowed for them; a cut checkpoint never parses and must exit 2."""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prismflow.cli import run_command
from prismflow.datasets import save_csv_windows

EXAMPLES = 40


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Small valid inputs for every verb: data, a trained checkpoint,
    generated windows and an imputation mask."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {name: str(root / name) for name in
             ("data", "model", "gen", "observed", "mask")}
    for argv in (
            ["gen-data", "--kind", "sines", "--n", "12", "--seq-len", "8",
             "--channels", "2", "--seed", "0", "--out", paths["data"]],
            ["train", "--data", paths["data"], "--seed", "0", "--epochs",
             "1", "--batch-size", "16", "--hidden-dim", "8", "--latent-dim",
             "2", "--quiet", "--out", paths["model"]],
            ["sample", "--checkpoint", paths["model"], "--n", "6",
             "--steps", "3", "--seed", "1", "--out", paths["gen"]]):
        assert run_command(argv) == 0
    mask = np.zeros((2, 8, 2))
    mask[:, ::2] = 1.0
    save_csv_windows(np.where(mask > 0, 0.25, np.nan), paths["observed"])
    save_csv_windows(mask, paths["mask"])
    return paths


# each verb's command line; {name} is an input file, {out} the output
VERBS = {
    "sample": "sample --checkpoint {model} --n 2 --steps 2 --seed 0 "
              "--out {out}",
    "train": "train --data {data} --seed 0 --epochs 1 --batch-size 16 "
             "--hidden-dim 8 --latent-dim 2 --quiet --out {out}",
    "impute": "impute --checkpoint {model} --observed {observed} --mask "
              "{mask} --steps 2 --seed 0 --out {out}",
    "eval": "eval --real {data} --gen {gen} --metrics corr,spectral "
            "--rank 2 --out {out}",
    "dmd": "dmd --real {data} --gen {gen} --rank 2 --out {out}",
    "dmd-experts": "dmd --experts {model} --out {out}",
}


@st.composite
def damage(draw, size):
    """("cut", n) keeps the first n bytes; ("flip", i, bit) flips one bit."""
    if draw(st.booleans()):
        return "cut", draw(st.integers(0, size - 1))
    return "flip", draw(st.integers(0, size - 1)), draw(st.integers(0, 7))


def mangle(raw: bytes, how) -> bytes:
    if how[0] == "cut":
        return raw[:how[1]]
    out = bytearray(raw)
    out[how[1]] ^= 1 << how[2]
    return bytes(out)


def run(verb, paths, out):
    """Run one verb in-process; returns its exit code and stderr."""
    argv = [tok.format(out=out, **paths) for tok in VERBS[verb].split()]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_undamaged_inputs_exit_0(files, tmp_path, verb):
    assert run(verb, files, str(tmp_path / "out")) == (0, "")


@pytest.mark.parametrize("verb", sorted(VERBS))
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_mangled_input_exits_cleanly(files, tmp_path_factory, verb, data):
    reads = sorted(set(re.findall(r"\{(\w+)\}", VERBS[verb])) - {"out"})
    target = data.draw(st.sampled_from(reads), label="target")
    with open(files[target], "rb") as fh:
        raw = fh.read()
    how = data.draw(damage(len(raw)), label="damage")
    work = tmp_path_factory.mktemp("mangled")
    paths = dict(files, **{target: str(work / target)})
    with open(paths[target], "wb") as fh:
        fh.write(mangle(raw, how))
    code, stderr = run(verb, paths, str(work / "out"))
    assert "Traceback" not in stderr
    assert code in (0, 1, 2)
    if code:
        assert stderr.startswith(("error: ", "i/o error: "))
        assert stderr.count("\n") == 1
    if target == "model" and how[0] == "cut":
        assert code == 2
