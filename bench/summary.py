"""Small statistics used by the benchmark: medians, the tail-percentile
rule, and the count of attempted and failed operations."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int):
    """The highest percentile of TAIL_LADDER that has at least MIN_BEYOND
    of n samples beyond it, or None when not even the median has."""
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def describe(values) -> dict:
    """Median, sample count and the tail percentile the count allows."""
    out = {"n": len(values), "median": statistics.median(values)}
    pct = tail_percentile(len(values))
    if pct is not None:
        out[f"p{pct:g}"] = percentile(values, pct)
    return out


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
