"""Latency histogram with fixed relative precision, YCSB-style summaries.

The YCSB runner records one latency sample per operation.  Storing raw
samples for millions of operations is wasteful, so :class:`LatencyHistogram`
buckets samples geometrically (default ~1% relative error), which is the
same trade-off HdrHistogram makes in the reference YCSB.
"""

from __future__ import annotations

import math
from typing import Dict


class LatencyHistogram:
    """Geometric-bucket histogram over positive latency samples (seconds)."""

    def __init__(self, relative_error: float = 0.01,
                 min_latency: float = 1e-9) -> None:
        if not 0 < relative_error < 1:
            raise ValueError("relative_error must be in (0, 1)")
        self._gamma = (1 + relative_error) / (1 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self._min = min_latency
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._actual_min = math.inf

    # -- recording ---------------------------------------------------------

    def record(self, latency: float) -> None:
        """Record one latency sample; non-positive samples clamp to min."""
        if latency < self._min:
            latency = self._min
        index = math.ceil(math.log(latency / self._min) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self._count += 1
        self._sum += latency
        if latency > self._max:
            self._max = latency
        if latency < self._actual_min:
            self._actual_min = latency

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram into this one.

        Identical geometries (the common case: per-worker histograms of
        one shard) merge bucket-for-bucket, losing nothing.  Differing
        geometries resample: each foreign bucket re-records its geometric
        midpoint at its count, so the merged percentiles stay within the
        coarser histogram's bucket width (plus this one's) of the truth
        -- bounded, and immaterial next to the ~1% default.  Mean/min/max
        stay exact either way (they merge from the tracked moments, not
        buckets).
        """
        if other._gamma == self._gamma and other._min == self._min:
            for index, count in other._buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + count
        else:
            for index, count in other._buckets.items():
                value = max(other._bucket_value(index - 0.5), self._min)
                mine = int(math.ceil(
                    math.log(value / self._min) / self._log_gamma))
                self._buckets[mine] = self._buckets.get(mine, 0) + count
        self._count += other._count
        self._sum += other._sum
        self._max = max(self._max, other._max)
        self._actual_min = min(self._actual_min, other._actual_min)

    # -- queries -----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def max(self) -> float:
        return self._max

    def min(self) -> float:
        return self._actual_min if self._count else 0.0

    def _bucket_value(self, index: int) -> float:
        return self._min * self._gamma ** index

    def percentile(self, pct: float) -> float:
        """Latency at the given percentile (0 < pct <= 100)."""
        if not 0 < pct <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self._count == 0:
            return 0.0
        rank = math.ceil(self._count * pct / 100.0)
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self._bucket_value(index)
        return self._max

    def summary(self) -> Dict[str, float]:
        """The summary block YCSB prints per operation type."""
        return {
            "count": float(self._count),
            "mean": self.mean(),
            "min": self.min(),
            "max": self.max(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }
