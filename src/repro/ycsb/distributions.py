"""YCSB's request-distribution generators (Cooper et al., SoCC 2010).

Ports of the reference generators the core workloads use:

* :class:`UniformGenerator` -- uniform over [lb, ub];
* :class:`ZipfianGenerator` -- Gray et al.'s quick zipfian sampler with the
  standard constant 0.99;
* :class:`ScrambledZipfianGenerator` -- zipfian popularity spread over the
  keyspace by FNV-1a hashing, so popular items are not clustered;
* :class:`SkewedLatestGenerator` -- zipfian favouring recently inserted
  items (workload D);
* :class:`CounterGenerator` -- monotonically increasing ids for inserts;
* :class:`DiscreteGenerator` -- weighted choice over operation types.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..common.hashing import fnv1a_64

ZIPFIAN_CONSTANT = 0.99


class NumberGenerator:
    """Interface: produce the next number in a sequence."""

    def next_value(self) -> int:
        raise NotImplementedError

    def last_value(self) -> int:
        raise NotImplementedError


class CounterGenerator(NumberGenerator):
    """0, 1, 2, ... starting from ``start`` (insert key ids)."""

    def __init__(self, start: int = 0) -> None:
        self._counter = start

    def next_value(self) -> int:
        value = self._counter
        self._counter += 1
        return value

    def last_value(self) -> int:
        return self._counter - 1


class UniformGenerator(NumberGenerator):
    def __init__(self, lb: int, ub: int,
                 rng: Optional[random.Random] = None) -> None:
        if ub < lb:
            raise ValueError("upper bound below lower bound")
        self._lb = lb
        self._ub = ub
        self._rng = rng if rng is not None else random.Random(0)
        self._last = lb

    def next_value(self) -> int:
        self._last = self._rng.randint(self._lb, self._ub)
        return self._last

    def last_value(self) -> int:
        return self._last


def zeta(n: int, theta: float) -> float:
    """zeta(n, theta) = sum_{i=1..n} 1/i^theta (the zipfian normalizer)."""
    # numpy makes this affordable for multi-million-item keyspaces.
    import numpy as np

    return float(np.sum(np.arange(1, n + 1, dtype=np.float64)
                        ** (-theta)))


class ZipfianGenerator(NumberGenerator):
    """Gray et al.'s zipfian sampler over [lb, ub], most popular = lb.

    ``allow_item_count_decrease`` is not needed by the core workloads; the
    item count may *grow* (workload D inserts), handled by
    :meth:`next_for_items` recomputing eta lazily from a cached zeta.
    """

    def __init__(self, lb: int, ub: int,
                 constant: float = ZIPFIAN_CONSTANT,
                 rng: Optional[random.Random] = None) -> None:
        self._lb = lb
        self._items = ub - lb + 1
        if self._items <= 0:
            raise ValueError("empty zipfian range")
        self._theta = constant
        self._rng = rng if rng is not None else random.Random(0)
        self._zeta2 = zeta(2, self._theta)
        self._zetan = zeta(self._items, self._theta)
        self._zetan_items = self._items
        self._alpha = 1.0 / (1.0 - self._theta)
        self._second_rank = 1.0 + 0.5 ** self._theta
        self._eta_for = None    # the (items, zetan) _eta_value is for
        self._eta_value = 0.0
        self._last = lb

    def _eta(self, items: int, zetan: float) -> float:
        """eta is a function of ``(items, zetan)``: recompute on change."""
        if (items, zetan) != self._eta_for:
            self._eta_for = (items, zetan)
            self._eta_value = ((1 - (2.0 / items) ** (1 - self._theta))
                               / (1 - self._zeta2 / zetan))
        return self._eta_value

    def _extend_zetan(self, items: int) -> float:
        """Incrementally extend the cached zeta sum to ``items``."""
        if items > self._zetan_items:
            import numpy as np

            extra = np.arange(self._zetan_items + 1, items + 1,
                              dtype=np.float64) ** (-self._theta)
            self._zetan += float(np.sum(extra))
            self._zetan_items = items
        return self._zetan

    def next_for_items(self, items: int) -> int:
        zetan = self._extend_zetan(items)
        u = self._rng.random()
        uz = u * zetan
        if uz < 1.0:
            value = self._lb
        elif uz < self._second_rank:
            value = self._lb + 1
        else:
            eta = self._eta(items, zetan)
            value = self._lb + int(items * (eta * u - eta + 1.0)
                                   ** self._alpha)
        self._last = min(value, self._lb + items - 1)
        return self._last

    def next_value(self) -> int:
        return self.next_for_items(self._items)

    def last_value(self) -> int:
        return self._last


class ScrambledZipfianGenerator(NumberGenerator):
    """Zipfian popularity scattered across [lb, ub] by FNV hashing."""

    def __init__(self, lb: int, ub: int,
                 rng: Optional[random.Random] = None) -> None:
        self._lb = lb
        self._items = ub - lb + 1
        self._zipf = ZipfianGenerator(0, self._items - 1, rng=rng)
        self._last = lb

    def next_value(self) -> int:
        rank = self._zipf.next_value()
        self._last = self._lb + fnv1a_64(rank) % self._items
        return self._last

    def last_value(self) -> int:
        return self._last


class SkewedLatestGenerator(NumberGenerator):
    """Zipfian over recency: item (basis.last - zipf_rank)."""

    def __init__(self, basis: CounterGenerator,
                 rng: Optional[random.Random] = None) -> None:
        self._basis = basis
        self._rng = rng if rng is not None else random.Random(0)
        initial = max(self._basis.last_value(), 1)
        self._zipf = ZipfianGenerator(0, initial, rng=self._rng)
        self._last = 0

    def next_value(self) -> int:
        maximum = self._basis.last_value()
        if maximum < 0:
            raise ValueError("latest distribution over empty keyspace")
        rank = self._zipf.next_for_items(maximum + 1)
        self._last = maximum - rank
        return self._last

    def last_value(self) -> int:
        return self._last


class DiscreteGenerator:
    """Weighted choice over labelled outcomes (operation mix)."""

    def __init__(self, pairs: Sequence[Tuple[str, float]],
                 rng: Optional[random.Random] = None) -> None:
        total = sum(weight for _, weight in pairs)
        if total <= 0:
            raise ValueError("discrete generator needs positive weights")
        # (label, cumulative probability), summed left to right.
        self._thresholds: List[Tuple[str, float]] = []
        acc = 0.0
        for label, weight in pairs:
            if weight > 0:
                acc += weight / total
                self._thresholds.append((label, acc))
        self._rng = rng if rng is not None else random.Random(0)

    def next_value(self) -> str:
        u = self._rng.random()
        for label, threshold in self._thresholds:
            if u < threshold:
                return label
        return self._thresholds[-1][0]
