"""The benchmark traces prismflow functions by name; a rename must fail
here rather than inside a benchmark run."""

import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    for module, names in spans.TARGETS.items():
        mod = importlib.import_module(f"prismflow.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


# (module, function, position, name) of every argument that a `BEFORE` or
# `AFTER` hook in bench/spans.py reads, by position or else by name
HOOK_ARGUMENTS = (
    ("router", "wta_loss", 0, "model"),
    ("sampler", "residual_velocity_step", 3, "cfg"),
    ("numcore", "mlp_apply", 1, "x"),
    ("numcore", "mlp_gradients", 0, "net"),
    ("numcore", "mlp_gradients", 2, "upstream"),
    ("datasets", "load_csv_windows", 0, "path"),
    ("datasets", "save_csv_windows", 1, "path"),
    ("checkpoint", "load_checkpoint", 0, "path"),
    ("checkpoint", "save_checkpoint", 0, "path"),
)


def test_every_hook_argument_is_where_the_hook_reads_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    hooked = set(spans.BEFORE) | set(spans.AFTER)
    assert hooked == {f"{m}.{f}" for m, f, _, _ in HOOK_ARGUMENTS}
    for module, name, pos, arg in HOOK_ARGUMENTS:
        fn = getattr(importlib.import_module(f"prismflow.{module}"), name)
        params = list(inspect.signature(fn).parameters)
        assert params[pos:pos + 1] == [arg], f"{module}.{name}{params}"
