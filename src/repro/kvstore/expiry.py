"""Active-expiry strategies.

Three interchangeable strategies decide how expired keys are reclaimed by
the background cron; together they reproduce Figure 2 of the paper:

* :class:`LazyExpiryCycle` -- a faithful port of Redis 4.0's
  ``activeExpireCycle`` (expire.c): every cron tick, sample 20 random keys
  from the expires dict, delete the expired ones, and repeat within a time
  budget only while more than 25% of the sample was expired.  When the
  expired fraction is below 25% this deletes ~N_sample * fraction keys per
  tick, which is what makes erasure time grow linearly with database size
  in the paper's measurement (41 s at 1k keys -> ~3 h at 128k keys).
* :class:`FullScanExpiryCycle` -- the paper's modification: iterate the
  *entire* expires set each cycle and delete everything already expired.
  One cycle erases every expired key, hence "sub-second" erasure, at O(n)
  scan cost per tick.
* :class:`IndexedExpiryCycle` -- the paper's section 5.1 research
  direction: index keys by expiration time (a min-heap here, as a
  timeseries-style index), so a cycle pops exactly the expired keys in
  O(k log n) without scanning live ones.

Strategies charge CPU time to the store's clock per key visited, so the
simulated-time benchmarks account for their work honestly.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Tuple

from ..common.clock import Clock
from ..engine.base import HZ
from .keyspace import Database

# Constants from Redis 4.0 expire.c.
LOOKUPS_PER_LOOP = 20
SLOW_TIME_PERC = 25
# CPU costs charged per key, calibrated to the reference system (C Redis
# on the paper's Xeon): a random sample costs an RNG draw plus hash-table
# probes (~200 ns); a sequential scan step is a dict-walk entry (~60 ns);
# a deletion frees the entry and fixes bookkeeping (~300 ns).
SAMPLE_COST = 0.2e-6
SCAN_COST = 0.06e-6
DELETE_COST = 0.3e-6

ExpireCallback = Callable[[Database, bytes], None]


class ExpiryStats:
    """Counters a strategy accumulates across cycles (exposed via INFO)."""

    def __init__(self) -> None:
        self.cycles = 0
        self.sampled = 0
        self.expired = 0


class ExpiryStrategy:
    """Interface: reclaim expired keys from ``db`` as of ``now``."""

    name = "abstract"

    def __init__(self) -> None:
        self.stats = ExpiryStats()

    def run_cycle(self, db: Database, now: float, clock: Clock,
                  on_expire: ExpireCallback) -> int:
        """Run one cron cycle; returns the number of keys expired."""
        raise NotImplementedError

    # Hooks for strategies that maintain auxiliary structures.

    def note_expiry_set(self, key: bytes, expire_at: float) -> None:
        pass

    def note_expiry_cleared(self, key: bytes) -> None:
        pass

    def note_flush(self) -> None:
        pass


class LazyExpiryCycle(ExpiryStrategy):
    """Redis 4.0 ``activeExpireCycle`` (slow cycle), ported verbatim.

    The store runs one cycle per cron tick (``HZ`` a second), and a
    cycle's time budget is SLOW_TIME_PERC% of one tick (25 ms).
    """

    name = "lazy"

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        super().__init__()
        self._rng = rng if rng is not None else random.Random(0)

    def run_cycle(self, db: Database, now: float, clock: Clock,
                  on_expire: ExpireCallback) -> int:
        self.stats.cycles += 1
        timelimit = (SLOW_TIME_PERC / 100.0) / HZ
        start = clock.now()
        total_expired = 0
        iteration = 0
        while True:
            num = db.volatile_count
            if num == 0:
                break
            if num > LOOKUPS_PER_LOOP:
                num = LOOKUPS_PER_LOOP
            expired = 0
            for _ in range(num):
                key = db.expires_sample.random_key(self._rng)
                if key is None:
                    break
                clock.advance(SAMPLE_COST)
                self.stats.sampled += 1
                expire_at = db.get_expiry(key)
                if expire_at is not None and expire_at <= now:
                    clock.advance(DELETE_COST)
                    on_expire(db, key)
                    expired += 1
            total_expired += expired
            db.expired_count += expired
            self.stats.expired += expired
            iteration += 1
            # Redis checks the budget every 16 iterations.
            if (iteration & 0xF) == 0 and clock.now() - start > timelimit:
                break
            if expired <= LOOKUPS_PER_LOOP // 4:
                break
        return total_expired


class FullScanExpiryCycle(ExpiryStrategy):
    """The paper's modification: walk every volatile key each cycle.

    Guarantees all expired keys are erased within one cron tick (the
    "sub-second latency for up to 1 million keys" claim), paying a full
    O(volatile_count) scan per cycle.
    """

    name = "fullscan"

    def run_cycle(self, db: Database, now: float, clock: Clock,
                  on_expire: ExpireCallback) -> int:
        self.stats.cycles += 1
        volatile = list(db.expires.items())
        clock.advance(SCAN_COST * max(len(volatile), 1))
        self.stats.sampled += len(volatile)
        expired = 0
        for key, expire_at in volatile:
            if expire_at <= now:
                clock.advance(DELETE_COST)
                on_expire(db, key)
                expired += 1
        db.expired_count += expired
        self.stats.expired += expired
        return expired


class IndexedExpiryCycle(ExpiryStrategy):
    """Expiration-time index (min-heap with lazy invalidation).

    ``note_expiry_set`` pushes (expire_at, key); stale heap entries (keys
    whose expiry changed or was cleared) are detected on pop by comparing
    against the authoritative expires dict.  A cycle costs O(k log n) for k
    expired keys -- the efficient-deletion shape section 5.1 asks for.
    """

    name = "indexed"

    def __init__(self) -> None:
        super().__init__()
        self._heap: List[Tuple[float, bytes]] = []

    def note_expiry_set(self, key: bytes, expire_at: float) -> None:
        heapq.heappush(self._heap, (expire_at, key))

    def note_flush(self) -> None:
        self._heap.clear()

    def run_cycle(self, db: Database, now: float, clock: Clock,
                  on_expire: ExpireCallback) -> int:
        self.stats.cycles += 1
        expired = 0
        while self._heap and self._heap[0][0] <= now:
            expire_at, key = heapq.heappop(self._heap)
            clock.advance(SAMPLE_COST)
            self.stats.sampled += 1
            actual = db.get_expiry(key)
            if actual is None or actual != expire_at:
                continue  # stale entry: expiry was cleared or rewritten
            if actual <= now:
                clock.advance(DELETE_COST)
                on_expire(db, key)
                expired += 1
        db.expired_count += expired
        self.stats.expired += expired
        return expired

    @property
    def index_size(self) -> int:
        return len(self._heap)


STRATEGIES = {
    LazyExpiryCycle.name: LazyExpiryCycle,
    FullScanExpiryCycle.name: FullScanExpiryCycle,
    IndexedExpiryCycle.name: IndexedExpiryCycle,
}


def make_strategy(name: str,
                  rng: Optional[random.Random] = None) -> ExpiryStrategy:
    """Instantiate a strategy by config name."""
    if name == LazyExpiryCycle.name:
        return LazyExpiryCycle(rng=rng)
    if name == FullScanExpiryCycle.name:
        return FullScanExpiryCycle()
    if name == IndexedExpiryCycle.name:
        return IndexedExpiryCycle()
    raise ValueError(f"unknown expiry strategy {name!r}; "
                     f"choose from {sorted(STRATEGIES)}")
