"""Tests of the benchmark's own arithmetic.

    python3 -m pytest bench/test_bench.py
"""

import itertools
import sys

import pytest

import run
import spans
import summary

sys.path.insert(0, run.SRC)
from workloads import Op  # noqa: E402  (imports prismflow from src/)


def make_spans(rows):
    """rows: (name, start, end, parent index)."""
    return [spans.Span(name, start, end, parent, op=1)
            for name, start, end, parent in rows]


class TestSelfTime:
    def test_nested_and_sibling_children(self):
        s = make_spans([("a", 0.0, 10.0, -1),
                        ("b", 1.0, 4.0, 0),  # first child of a
                        ("c", 5.0, 7.0, 0),  # sibling of b
                        ("d", 2.0, 3.0, 1)])  # grandchild, inside b
        assert spans.self_times(s) == pytest.approx([5.0, 2.0, 2.0, 1.0])

    def test_grandchild_time_is_not_subtracted_twice(self):
        s = make_spans([("a", 0.0, 4.0, -1), ("b", 0.0, 4.0, 0),
                        ("c", 1.0, 2.0, 1)])
        assert spans.self_times(s) == pytest.approx([0.0, 3.0, 1.0])

    def test_overlapping_and_clipped_intervals(self):
        assert spans.covered_length([(1, 4), (3, 6), (8, 9)]) == 6
        assert spans.covered_length([(2, 2), (5, 3)]) == 0
        s = make_spans([("a", 0.0, 2.0, -1), ("b", 1.0, 3.0, 0)])
        assert spans.self_times(s)[0] == pytest.approx(1.0)

    def test_recorder_links_parents_and_ops(self):
        rec = spans.Recorder()
        rec.op = 7
        outer = rec.open("outer")
        inner = rec.open("inner")
        rec.close(inner)
        sibling = rec.open("sibling")
        rec.close(sibling)
        rec.close(outer)
        assert [s.parent for s in rec.spans] == [-1, outer, outer]
        assert {s.op for s in rec.spans} == {7}
        assert all(s.end >= s.start for s in rec.spans)


class TestLayerMetrics:
    def test_counts_per_round_and_ratios(self):
        s = make_spans([
            ("trainer.train_step", 0.0, 1.0, -1),
            ("flowpath.encode", 0.1, 0.2, 0),
            ("router.wta_loss", 0.3, 0.9, 0),
            ("flowpath.encode", 0.3, 0.4, 2),
            ("numcore.mlp_gradients", 0.5, 0.6, 2),
            ("flowpath.encode", 2.0, 2.1, -1),  # outside any step
        ])
        s[4].attrs = {"rows": 8, "decoder_rows": 8, "useful_rows": 2}
        out = spans.layer_metrics(s, rounds=2, untraced_walls=[1.0, 1.0],
                                  traced_walls=[1.25, 1.25])
        assert out["flowpath.encode.per_step"] == 2
        assert out["router.decoder_backward.useful_ratio"] == 0.25
        assert out["router.decoder_backward.rows"] == 4
        assert out["numcore.mlp_gradients.rows"] == 4
        assert out["numcore.mlp_gradients.calls"] == 0.5
        assert out["router.wta_loss.self_ms"] == pytest.approx(400.0)
        assert out["trace.overhead_ratio"] == pytest.approx(0.25)
        assert out["spectra.exact_dmd.calls"] == 0
        assert list(out) == [name for name, _, _ in spans.LAYER_METRICS]


class TestTailPercentile:
    @pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (39, 50.0),
                                        (40, 75.0), (99, 75.0), (100, 90.0),
                                        (999, 90.0), (1000, 99.0),
                                        (10000, 99.9)])
    def test_highest_with_ten_beyond(self, n, pct):
        assert summary.tail_percentile(n) == pct

    def test_describe_reports_count_and_allowed_tail(self):
        d = summary.describe(list(range(1, 101)))
        assert d["n"] == 100 and d["median"] == 50.5
        assert d["p90"] == pytest.approx(90.1)
        assert set(summary.describe([1.0, 2.0])) == {"n", "median"}

    def test_percentile_matches_linear_rule(self):
        assert summary.percentile([4, 1, 3, 2], 50) == 2.5
        assert summary.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)


class TestFailureCounting:
    def test_tally(self):
        t = summary.Tally()
        assert t.error_rate == 0.0
        for ok in (True, False, True, True):
            t.record(ok)
        assert (t.attempted, t.failed, t.error_rate) == (4, 1, 0.25)

    def test_failures_are_counted_not_raised(self):
        digests = itertools.count()

        def raise_in_run():
            raise RuntimeError("exit 2")

        def bad_check(_):
            raise ValueError("wrong shape")

        ops = [
            Op("ok", "main", 10, lambda: None, lambda _: ("x", {"q": 1.0}),
               "ok_windows_per_s", "q"),
            Op("crash", "main", 10, raise_in_run, lambda _: ("x", {}),
               "crash_windows_per_s"),
            Op("wrong", "control", 10, lambda: None, bad_check, "wrong_s"),
            Op("drift", "control", 10, lambda: None,
               lambda _: (str(next(digests)), {}), "drift_s"),
        ]
        m = run.Measurement(ops, reference=lambda: 0.5)
        m.run_round()
        m.run_round()
        # crash and wrong fail twice; drift differs from its first output
        assert (m.tally.attempted, m.tally.failed) == (8, 5)
        assert len(m.values["ok_windows_per_s"]) == 2
        assert m.values["q"] == [1.0, 1.0]
        assert len(m.values["drift_s"]) == 1
        # a role with a failed operation yields no throughput sample
        assert m.roles["main"] == [] and m.roles["control"] == []
