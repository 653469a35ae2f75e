"""Order statistics the benchmark reports, defined here once.

:func:`percentile` is nearest-rank: the value at 0-based rank
``ceil(f * n) - 1`` of the sorted sample, which is what
``numpy.percentile(..., method="inverted_cdf")`` returns.  The benchmark
does not use ``repro.serve.stats.percentile``, which indexes ``int(f * n)``
and so reads one rank high.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: Tail percentiles tried from the highest down; the first with at least
#: :data:`MIN_BEYOND` samples above its rank is reported.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.90, 0.75)
MIN_BEYOND = 10


def nearest_rank(n: int, fraction: float) -> int:
    """0-based rank of the ``fraction`` percentile in a sample of ``n``."""
    if n < 1:
        raise ValueError("empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    # Rounding first keeps e.g. 0.95 * 20 = 19.000000000000004 at rank 18.
    return min(n - 1, max(0, math.ceil(round(fraction * n, 9)) - 1))


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    return float(sorted_values[nearest_rank(len(sorted_values), fraction)])


def tail(sorted_values: Sequence[float]) -> Tuple[float, float]:
    """``(fraction, value)`` of the highest ladder percentile with at least
    :data:`MIN_BEYOND` samples beyond it; the median when none has."""
    n = len(sorted_values)
    for fraction in TAIL_LADDER:
        if n - 1 - nearest_rank(n, fraction) >= MIN_BEYOND:
            return fraction, percentile(sorted_values, fraction)
    return 0.5, percentile(sorted_values, 0.5)
