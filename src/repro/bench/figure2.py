"""Figure 2: delay in erasing expired keys vs. database size.

The paper's experiment: populate the store so that 20% of keys expire in
5 minutes (short-term) and 80% in 5 days; once the 5 minutes elapse,
measure how long Redis takes to actually erase the short-term keys.

Under the faithful port of Redis 4.0's lazy probabilistic expiry the time
grows roughly linearly with total keys (the sampler deletes ~20 x
expired-fraction keys per 100 ms tick and the fraction decays), matching
the paper's 41 s at 1k keys -> ~3 h at 128k keys.  The paper's modified
full-scan expiry (and the indexed strategy from section 5.1) erase
everything within one cron tick: sub-second up to 1M keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..common.clock import SimClock
from ..engine.base import HZ
from ..kvstore.store import KeyValueStore, StoreConfig
from .reporting import Axis, Row, Scenario, scaled

SHORT_TTL = 300.0          # 5 minutes
LONG_TTL = 5 * 86400.0     # 5 days
SHORT_FRACTION = 0.2

# Paper's measured erasure delays (seconds) for the lazy strategy.
PAPER_LAZY_SECONDS = {
    1_000: 41.0, 2_000: 94.0, 4_000: 256.0, 8_000: 511.0,
    16_000: 1090.0, 32_000: 2228.0, 64_000: 4830.0, 128_000: 10728.0,
}

DEFAULT_SIZES = (1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000,
                 128_000)


@dataclass
class ErasureMeasurement:
    total_keys: int
    short_keys: int
    strategy: str
    erase_seconds: float      # last short-term key gone, after expiry
    cycles: int
    completed: bool           # False if the safety cap was hit


def populate_expiring(store: KeyValueStore, total_keys: int,
                      short_fraction: float = SHORT_FRACTION,
                      short_ttl: float = SHORT_TTL,
                      long_ttl: float = LONG_TTL) -> int:
    """Bulk-load ``total_keys`` with the paper's TTL mix.

    Uses the direct keyspace API (the loader fast-path) so benchmark time
    is spent measuring expiry, not command dispatch.  Returns the number
    of short-term keys.
    """
    db = store.databases[0]
    now = store.clock.now()
    short_keys = int(total_keys * short_fraction)
    for i in range(total_keys):
        key = f"key:{i:08d}".encode("ascii")
        db.set_value(key, b"x" * 8)
        ttl = short_ttl if i < short_keys else long_ttl
        store.set_key_expiry(db, key, now + ttl)
    return short_keys


def measure_erasure_delay(total_keys: int, strategy: str = "lazy",
                          seed: int = 0,
                          sim_cap: float = 86400.0,
                          short_fraction: float = SHORT_FRACTION,
                          short_ttl: float = SHORT_TTL,
                          long_ttl: float = LONG_TTL
                          ) -> ErasureMeasurement:
    """One point of Figure 2.

    Runs the cron loop in simulated time until every short-term key is
    erased (or ``sim_cap`` simulated seconds pass) and reports the delay
    beyond the expiry instant.
    """
    clock = SimClock()
    store = KeyValueStore(
        StoreConfig(expiry_strategy=strategy, seed=seed),
        clock=clock)
    short_keys = populate_expiring(store, total_keys, short_fraction,
                                   short_ttl, long_ttl)
    last_erasure: List[float] = [0.0]

    def listener(db_index: int, key: bytes, reason: str,
                 when: float) -> None:
        last_erasure[0] = when

    store.add_deletion_listener(listener)
    # Jump to the expiry boundary; nothing can expire before it.
    clock.advance(short_ttl + 1e-3)
    expiry_instant = short_ttl
    tick = 1.0 / HZ
    cycles = 0
    completed = True
    while store.stats.expired_keys < short_keys:
        if clock.now() - expiry_instant > sim_cap:
            completed = False
            break
        store.cron(clock.now())
        cycles += 1
        if store.stats.expired_keys >= short_keys:
            break
        clock.advance(tick)
    erase_seconds = (last_erasure[0] - expiry_instant if completed
                     else clock.now() - expiry_instant)
    return ErasureMeasurement(
        total_keys=total_keys, short_keys=short_keys, strategy=strategy,
        erase_seconds=erase_seconds, cycles=cycles, completed=completed)


def erasure_delays(total_keys: int,
                   strategies: Sequence[str] = ("lazy", "fullscan")) -> Row:
    """One database size under each expiry strategy: seconds from the
    expiry instant until the last short-term key is gone."""
    row = {}
    for strategy in strategies:
        point = measure_erasure_delay(total_keys, strategy)
        row["short_keys"] = point.short_keys
        row[f"{strategy}_seconds"] = point.erase_seconds
    return row


KEYS = (("total_keys", "total_keys"), ("expired_keys", "short_keys"))
FULLSCAN = ("fullscan_erase_s", scaled("fullscan_seconds", digits=3))

FIGURE2 = Scenario(
    title="Figure 2 -- erasure delay of expired keys",
    axes=(Axis("total_keys", DEFAULT_SIZES[:5], full=DEFAULT_SIZES),),
    measure=erasure_delays,
    columns=(*KEYS, ("lazy_erase_s", scaled("lazy_seconds", digits=3)),
             FULLSCAN,
             ("paper_lazy_s", lambda row, _rows:
              PAPER_LAZY_SECONDS.get(row["total_keys"], "-"))),
)

# Past the figure's range only the modified expiry is measurable: the
# paper reports it sub-second up to 1M keys (``--full``).
FULLSCAN_AT_SCALE = Scenario(
    title="full-scan expiry past the figure's range "
          "(paper: sub-second up to 1M keys):",
    axes=(Axis("total_keys", (100_000,), full=(1_000_000,)),),
    measure=erasure_delays,
    fixed={"strategies": ("fullscan",)},
    columns=(*KEYS, FULLSCAN),
)


def doubling_ratios(rows: Sequence[Row]) -> List[Tuple[int, float]]:
    """Lazy erase-time growth factor per size doubling (paper shape:
    ~2x)."""
    out = []
    for previous, current in zip(rows, rows[1:]):
        if previous["lazy_seconds"] > 0:
            out.append((current["total_keys"],
                        current["lazy_seconds"] / previous["lazy_seconds"]))
    return out
