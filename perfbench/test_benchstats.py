"""The benchmark's percentile agrees with numpy's nearest-rank definition."""

import math
from fractions import Fraction

import numpy as np
import pytest

from benchstats import MIN_BEYOND, TAIL_LADDER, nearest_rank, percentile, tail

FRACTIONS = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 19, 20, 99, 100, 101, 1000, 1001, 4096])
def test_percentile_matches_numpy_inverted_cdf(n):
    values = np.sort(np.random.default_rng(n).normal(size=n))
    for fraction in FRACTIONS:
        exact = Fraction(str(fraction)) * n
        exact_rank = min(n - 1, max(0, math.ceil(exact) - 1))
        assert percentile(values, fraction) == values[exact_rank], (n, fraction)
        # numpy forms q / 100 * n in floating point; where that product is
        # off the exact one (99.9% of 1000 gives 999.0000000000001) numpy
        # reads one rank high, so it is the reference only where it is exact.
        if (100 * fraction) / 100 * n == exact:
            expected = np.percentile(values, 100 * fraction, method="inverted_cdf")
            assert percentile(values, fraction) == expected, (n, fraction)


def test_percentile_is_not_one_rank_high():
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile(list(range(1, 101)), 0.99) == 99


def test_tail_keeps_ten_samples_beyond():
    for n in (5, 20, 21, 40, 200, 1000, 1010, 10010, 20000):
        values = list(range(n))
        fraction, value = tail(values)
        if fraction in TAIL_LADDER:
            assert n - 1 - nearest_rank(n, fraction) >= MIN_BEYOND
        higher = [f for f in TAIL_LADDER if f > fraction]
        assert all(n - 1 - nearest_rank(n, f) < MIN_BEYOND for f in higher)
        assert value == percentile(values, fraction)


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        nearest_rank(0, 0.5)
    with pytest.raises(ValueError):
        nearest_rank(10, 1.5)
