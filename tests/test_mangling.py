"""Truncated and bit-flipped checkpoints and CSVs through the CLI: every
verb must end with exit code 0, 1 or 2 and a one-line error, never a
traceback. Files that still parse after the damage are valid inputs, so
exit 0 is allowed for them; a cut checkpoint never parses and must exit 2.
Checkpoint headers whose values no valid checkpoint holds must fail the
same way, without a numpy warning."""

import contextlib
import copy
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prismflow.checkpoint import load_checkpoint, save_checkpoint
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


SIZES = ("seq_len", "channels", "n_experts", "latent_dim", "hidden_dim",
         "head_hidden", "enc_layers", "dec_hidden", "router_hidden")
REALS = ("delta", "expert_init_scale", "expert_spread_base")
CHOICES = ("activation", "expert_init")
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                              10 ** 400, -10 ** 400])
# values of the wrong type; no text here reads as a number
JUNK = st.one_of(st.none(), st.booleans(), st.text("xyz_", max_size=4),
                 st.lists(st.integers(-2, 2), max_size=1),
                 st.dictionaries(st.text(max_size=2), st.integers(),
                                 max_size=1))
# any value that a size, a width or a count could be replaced with
NUMBERS = st.one_of(st.integers(-5, 5000), st.integers(2 ** 62, 2 ** 70),
                    st.floats(-1e6, 1e6), NON_FINITE, JUNK)


def not_int(current):
    """Values that are not the integer `current` (8.0 is not 8)."""
    return NUMBERS.filter(lambda v: not (isinstance(v, int) and v == current))


@st.composite
def header_edit(draw, header):
    """A copy of a valid checkpoint header with one value that no valid
    checkpoint over the same blocks holds: a changed size, a non-finite or
    mistyped real, an unknown choice, a bad time frequency, bad
    normalization stats, changed `mlp_dims` or a missing section."""
    out = copy.deepcopy(header)
    mc, norm = out["model_config"], out["normalization"]
    kind = draw(st.sampled_from(["size", "real", "choice", "freq", "stat",
                                 "dims", "section", "key"]), label="kind")
    if kind == "size":
        key = draw(st.sampled_from(SIZES), label="key")
        mc[key] = draw(not_int(mc[key]), label="value")
    elif kind == "real":
        key = draw(st.sampled_from(REALS), label="key")
        bad = st.one_of(NON_FINITE, JUNK.filter(lambda v: v is not True
                                                and v is not False))
        if key == "delta":
            bad = st.one_of(bad, st.floats(-1e6, -1e-9))
        mc[key] = draw(bad, label="value")
    elif kind == "choice":
        key = draw(st.sampled_from(CHOICES), label="key")
        mc[key] = draw(st.one_of(st.text(max_size=8), JUNK).filter(
            lambda v: v not in ("tanh", "softplus", "random", "spread")),
            label="value")
    elif kind == "freq":
        freqs = mc["time_freqs"]
        if draw(st.booleans(), label="whole"):
            mc["time_freqs"] = draw(st.one_of(st.none(), st.integers(),
                                              st.text(max_size=6)))
        else:
            i = draw(st.integers(0, len(freqs) - 1), label="index")
            freqs[i] = draw(st.one_of(NON_FINITE, JUNK).filter(
                lambda v: not isinstance(v, bool)), label="value")
    elif kind == "stat":
        key = draw(st.sampled_from(["shift", "scale"]), label="key")
        how = draw(st.sampled_from(["cell", "zero", "length", "whole"]),
                   label="how")
        if how == "cell":
            i = draw(st.integers(0, len(norm[key]) - 1), label="index")
            norm[key][i] = draw(st.one_of(NON_FINITE, JUNK).filter(
                lambda v: not isinstance(v, bool)), label="value")
        elif how == "zero":
            norm["scale"][0] = draw(st.sampled_from([0.0, -0.0, 0]))
        elif how == "length":
            norm[key] = norm[key][:-1] if draw(st.booleans()) else \
                norm[key] + [1.0]
        else:
            norm[key] = draw(st.one_of(st.none(), st.booleans(),
                                       st.text(max_size=4), NON_FINITE))
    elif kind == "dims":
        net = draw(st.sampled_from(sorted(out["mlp_dims"])), label="net")
        widths = out["mlp_dims"][net]
        i = draw(st.integers(0, len(widths) - 1), label="index")
        widths[i] = draw(NUMBERS.filter(lambda v: v != widths[i]),
                         label="value")
    elif kind == "section":
        del out[draw(st.sampled_from(["model_config", "mlp_dims",
                                      "normalization"]), label="section")]
    else:
        mc[draw(st.text(min_size=1, max_size=6).filter(
            lambda k: k not in mc), label="key")] = 1
    return out


@pytest.mark.parametrize("verb", ["sample", "dmd-experts", "impute"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_header_values_that_no_checkpoint_holds_fail_cleanly(
        files, tmp_path_factory, verb, data):
    header, blocks = load_checkpoint(files["model"])
    edited = data.draw(header_edit(header), label="header")
    work = tmp_path_factory.mktemp("header")
    paths = dict(files, model=str(work / "model"))
    save_checkpoint(paths["model"], edited, blocks)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stderr = run(verb, paths, str(work / "out"))
    assert "Traceback" not in stderr
    assert code in (1, 2)
    assert stderr.startswith("error: ")
    assert stderr.count("\n") == 1


# verbs that load the model's expert operators, plus gamma-0 sampling,
# which never assembles them
OPERATOR_VERBS = {
    "sample": (VERBS["sample"], 2),
    "impute": (VERBS["impute"], 2),
    "forecast": (VERBS["impute"].replace("impute", "forecast", 1), 2),
    "dmd-experts": (VERBS["dmd-experts"], 2),
    "sample-gamma0": (VERBS["sample"] + " --gamma 0", 0),
}


@pytest.mark.parametrize("verb", sorted(OPERATOR_VERBS))
def test_huge_finite_expert_parameter_fails_cleanly(files, tmp_path,
                                                     monkeypatch, verb):
    """A finite parameter whose operator overflows (R^T R with R[0, 0] =
    1e300) is an error naming the expert, not a numpy warning."""
    header, blocks = load_checkpoint(files["model"])
    blocks["expert1.R"][0, 0] = 1e300
    paths = dict(files, model=str(tmp_path / "model"))
    save_checkpoint(paths["model"], header, blocks)
    argv, want = OPERATOR_VERBS[verb]
    monkeypatch.setitem(VERBS, verb, argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stderr = run(verb, paths, str(tmp_path / "out"))
    assert code == want
    if want:
        assert stderr == "error: expert 1 has a non-finite operator\n"
