"""The benchmark traces prismflow functions by name; a rename must fail
here rather than inside a benchmark run."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    for module, names in spans.TARGETS.items():
        mod = importlib.import_module(f"prismflow.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
