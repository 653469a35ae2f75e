"""Per-model serving statistics: request rates, batch occupancy, latency.

Every :class:`~repro.serve.server.ModelServer` keeps one
:class:`StatsRecorder` per served model.  The recorder is written from two
places — the request path (per-request latency) and the micro-batcher worker
(per-micro-batch size) — and read by the ``/stats`` HTTP route, so every
operation is guarded by one lock and a snapshot is a plain JSON-ready dict.

Example::

    stats = StatsRecorder(max_batch_size=8)
    stats.observe_request(latency_s=0.004, n_samples=1)
    stats.observe_batch(n_samples=6)
    snap = stats.snapshot()
    snap["requests_total"], snap["batch_occupancy"]
    (1, 0.75)
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

#: How many recent request latencies the percentile reservoir keeps.
LATENCY_RESERVOIR_SIZE = 4096


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence.

    Returns the value at 0-based rank ``ceil(fraction * n) - 1`` (clamped to
    the sample), the definition of
    ``numpy.percentile(..., method="inverted_cdf")``.  The product is
    rounded to 9 decimals before the ceiling, so a fraction written in
    decimal keeps its exact rank: ``0.95 * 20`` is
    ``19.000000000000004`` in floating point, but p95 of 20 samples is
    the 19th value, not the 20th.  An empty sequence reads 0.0.

    Example::

        >>> percentile([1.0, 2.0, 3.0, 4.0], 0.5)
        2.0
    """
    n = len(sorted_values)
    if not n:
        return 0.0
    rank = math.ceil(round(fraction * n, 9)) - 1
    return float(sorted_values[min(n - 1, max(0, rank))])


class StatsRecorder:
    """Thread-safe accumulator of one model's serving statistics.

    Parameters
    ----------
    max_batch_size:
        The batcher's configured ceiling; batch occupancy is reported as
        ``mean micro-batch size / max_batch_size``.
    reservoir_size:
        How many recent per-request latencies feed the p50/p99 estimates.

    Example::

        stats = StatsRecorder(max_batch_size=256)
        stats.observe_request(latency_s=0.002)
        stats.snapshot()["latency_p50_ms"]    # 2.0
    """

    def __init__(
        self,
        max_batch_size: int,
        reservoir_size: int = LATENCY_RESERVOIR_SIZE,
    ) -> None:
        self.max_batch_size = int(max_batch_size)
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests_total = 0
        self._samples_total = 0
        self._errors_total = 0
        self._batches_total = 0
        self._batched_samples_total = 0
        self._latencies: Deque[float] = deque(maxlen=reservoir_size)

    # ------------------------------------------------------------------ #
    def observe_request(self, latency_s: float, n_samples: int = 1) -> None:
        """Record one completed predict request (single or bulk)."""
        with self._lock:
            self._requests_total += 1
            self._samples_total += int(n_samples)
            self._latencies.append(float(latency_s))

    def observe_error(self) -> None:
        """Record a request that failed (bad input, shutdown race, ...)."""
        with self._lock:
            self._errors_total += 1

    def observe_batch(self, n_samples: int) -> None:
        """Record one micro-batch flushed onto the vectorized hot path."""
        with self._lock:
            self._batches_total += 1
            self._batched_samples_total += int(n_samples)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, float]:
        """A JSON-serializable view of everything recorded so far."""
        with self._lock:
            elapsed = max(time.monotonic() - self._started, 1e-9)
            latencies = sorted(self._latencies)
            mean_batch: Optional[float] = None
            if self._batches_total:
                mean_batch = self._batched_samples_total / self._batches_total
            return {
                "requests_total": self._requests_total,
                "samples_total": self._samples_total,
                "errors_total": self._errors_total,
                "uptime_s": elapsed,
                "requests_per_s": self._requests_total / elapsed,
                "samples_per_s": self._samples_total / elapsed,
                "batches_total": self._batches_total,
                "mean_batch_size": mean_batch if mean_batch is not None else 0.0,
                "batch_occupancy": (
                    (mean_batch / self.max_batch_size)
                    if mean_batch is not None and self.max_batch_size
                    else 0.0
                ),
                "latency_p50_ms": 1000.0 * percentile(latencies, 0.50),
                "latency_p99_ms": 1000.0 * percentile(latencies, 0.99),
                "latency_samples": len(latencies),
            }
