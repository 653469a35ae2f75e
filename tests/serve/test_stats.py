"""``percentile`` is nearest-rank, the definition numpy calls inverted_cdf."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.stats import StatsRecorder, percentile


def _exact_rank(n: int, fraction: float) -> int:
    """0-based nearest rank of the decimal ``fraction`` in exact arithmetic."""
    return min(n - 1, max(0, math.ceil(Fraction(str(fraction)) * n) - 1))


@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=300,
    ),
    per_10k=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=300, deadline=None)
def test_percentile_matches_numpy_inverted_cdf(values, per_10k):
    ordered = sorted(values)
    n = len(ordered)
    q = per_10k / 100  # numpy's percent
    fraction = per_10k / 10_000
    got = percentile(ordered, fraction)
    assert got == ordered[_exact_rank(n, fraction)]
    # numpy's rank is ceil(n * (q / 100)) - 1 in floating point; where that
    # product is off the exact one (99.9% of 1000 gives 999.0000000000001)
    # numpy reads one rank high, so it is the reference only where it is exact.
    if Fraction(n * (q / 100)) == Fraction(per_10k, 10_000) * n:
        expected = np.percentile(np.asarray(ordered), q, method="inverted_cdf")
        assert got == float(expected)


def test_percentile_is_not_one_rank_high():
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile(list(range(1, 101)), 0.99) == 99.0
    # 0.95 * 20 is 19.000000000000004 in floating point.
    assert percentile(list(range(1, 21)), 0.95) == 19.0
    assert percentile(list(range(1, 1001)), 0.999) == 999.0


def test_percentile_edges():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.0) == 7.0
    assert percentile([7.0], 1.0) == 7.0
    assert percentile([1.0, 2.0], 0.0) == 1.0
    assert percentile([1.0, 2.0], 1.0) == 2.0


def test_snapshot_reports_nearest_rank_latencies():
    stats = StatsRecorder(max_batch_size=8)
    for ms in range(1, 101):
        stats.observe_request(latency_s=ms / 1000.0)
    snap = stats.snapshot()
    assert math.isclose(snap["latency_p50_ms"], 50.0)
    assert math.isclose(snap["latency_p99_ms"], 99.0)
