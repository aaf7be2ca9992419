"""Tiering scenario: what the cold archive buys (and costs).

The paper keeps every record hot; this scenario quantifies the tiered
alternative.  One GDPR dataset (every record personal data, per-subject
encryption) is loaded, then accessed in windows that touch only a *hot
fraction* of the keys -- round-robin, so the hot set never goes idle --
while the idle scan demotes the rest into sealed, indexed,
per-subject-encrypted cold segments on an SSD-latency device.  Each
(mode, hot-fraction) cell runs the identical seeded access stream over
a hot-only store and over the tiered store and reports:

* **throughput** of the access windows (simulated ops/s, idle windows
  excluded) -- the price of promote-on-read misses;
* **resident hot footprint** (keys and bytes in the hot engine) vs the
  archive's residency (`cold ram`: key directory + subject blooms, no
  payload) and its device bytes (`cold dev`) -- the capacity the
  archive frees;
* **time-to-full-erasure** for one data subject whose records span both
  tiers: one keyspace DEL, its cold tombstones sharing one fsync, the
  fsynced subject-erasure marker, and the crypto-erasure -- Art. 17
  reaching the archive, timed.

Same seed => identical numbers, byte for byte; CI diffs two runs.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence

from ..common.clock import SimClock
from ..crypto.cipher import seeded_entropy
from ..device.append_log import AppendLog
from ..device.latency import INTEL_750_SSD
from ..engine.base import StorageEngine
from ..gdpr.metadata import GDPRMetadata
from ..gdpr.rights import right_to_erasure
from ..gdpr.store import GDPRConfig, GDPRStore
from ..tiering import TieredEngine, TieringConfig
from .calibration import logged_store
from .reporting import Axis, Row, Scenario, halved_sizes, scaled

HOT_FRACTIONS = (1.0, 0.5, 0.25)
VALUE_BYTES = 256
ACCESS_WINDOWS = 4
WINDOW_IDLE_SECONDS = 45.0
DEMOTE_IDLE_AFTER = 60.0
DEMOTE_INTERVAL = 30.0
SEGMENT_MAX_RECORDS = 32
PROBE_COLD_READS = 8
ERASURE_SUBJECT = "subject-0"


def _make_engine(mode: str, clock: SimClock) -> StorageEngine:
    engine: StorageEngine = logged_store(clock, log_reads=False)
    if mode == "tiered":
        engine = TieredEngine(
            engine,
            device=AppendLog(clock=clock, latency=INTEL_750_SSD,
                             name="cold.seg"),
            tiering=TieringConfig(
                demote_idle_after=DEMOTE_IDLE_AFTER,
                demote_interval=DEMOTE_INTERVAL,
                segment_max_records=SEGMENT_MAX_RECORDS))
    return engine


def _hot_footprint(engine: StorageEngine) -> Dict[str, int]:
    if isinstance(engine, TieredEngine):
        return engine.memory_footprint()
    hot_keys = 0
    hot_bytes = 0
    for record in engine.scan_records(0):
        hot_keys += 1
        hot_bytes += len(record.key)
        if isinstance(record.value, bytes):
            hot_bytes += len(record.value)
    return {"hot_keys": hot_keys, "hot_bytes": hot_bytes,
            "cold_keys": 0, "cold_resident_bytes": 0,
            "cold_device_bytes": 0}


def run_tiering_cell(mode: str, hot_fraction: float,
                     record_count: int = 300,
                     operation_count: int = 800,
                     seed: int = 42) -> Row:
    """Load, access in windows, then erase one cross-tier subject.

    ``throughput`` is access-window ops per simulated second;
    ``cold_read_seconds`` the average probe read (the promote cost when
    tiered); ``erase_seconds`` one subject's Art. 17 across both tiers.
    """
    # Seeded nonces/keys: entropy must be reproducible for the CI
    # byte-identical re-run check to hold.
    with seeded_entropy(seed):
        return _run_cell(mode, hot_fraction, record_count,
                         operation_count, seed)


def _run_cell(mode: str, hot_fraction: float, record_count: int,
              operation_count: int, seed: int) -> Row:
    clock = SimClock()
    engine = _make_engine(mode, clock)
    store = GDPRStore(kv=engine,
                      config=GDPRConfig(encrypt_at_rest=True,
                                        compact_on_erasure=False))
    rng = random.Random(seed)
    subjects = max(4, record_count // 8)
    keys = [f"user{i:06d}" for i in range(record_count)]

    def metadata(index: int) -> GDPRMetadata:
        return GDPRMetadata(owner=f"subject-{index % subjects}",
                            purposes=frozenset({"service"}))

    for index, key in enumerate(keys):
        store.put(key, bytes(rng.getrandbits(8)
                             for _ in range(VALUE_BYTES)),
                  metadata(index))

    # Access windows: round-robin over the hot prefix, then an idle gap
    # in which the demotion scan runs.  Each window covers the *whole*
    # hot set at least once (window_ops >= hot_count), so only the cold
    # remainder ever goes idle -- at hot fraction 1.0 the tiered store
    # must demote nothing.
    hot_count = max(1, int(round(record_count * hot_fraction)))
    hot_keys_list = keys[:hot_count]
    window_ops = max(operation_count // ACCESS_WINDOWS, hot_count)
    operations = 0
    active_seconds = 0.0
    for _ in range(ACCESS_WINDOWS):
        started = clock.now()
        for position in range(window_ops):
            key = hot_keys_list[position % hot_count]
            index = int(key[4:])
            if rng.random() < 0.5:
                store.get(key)
            else:
                store.put(key, bytes(rng.getrandbits(8)
                                     for _ in range(VALUE_BYTES)),
                          metadata(index))
            operations += 1
        active_seconds += clock.now() - started
        clock.advance(WINDOW_IDLE_SECONDS)
        store.tick()

    footprint = _hot_footprint(engine)

    # Cold-read probe: touch a few keys from the idle remainder (if
    # any) -- in the tiered store these fault in from the archive, so
    # the per-read cost is the promote-on-read price.
    probe_keys = keys[hot_count:][:PROBE_COLD_READS] or keys[:1]
    probe_started = clock.now()
    for key in probe_keys:
        store.get(key)
    probe_seconds = (clock.now() - probe_started) / len(probe_keys)

    # Art. 17 on a subject whose records span both tiers (its keys are
    # strided across the keyspace, so at hot fractions < 1 some were
    # demoted): time from request to receipt, archive included.
    receipt = right_to_erasure(store, ERASURE_SUBJECT)
    return {
        "throughput": operations / active_seconds if active_seconds else 0.0,
        **footprint,
        "demotions": getattr(engine, "demotions", 0),
        "promotions": getattr(engine, "promotions", 0),
        "cold_read_seconds": probe_seconds,
        "erase_seconds": receipt.duration,
        "keys_erased": len(receipt.keys_erased),
        "cold_segments_voided": receipt.cold_segments_voided,
    }


def footprint_reduction(rows: Sequence[Row]) -> Dict[float, float]:
    """Per hot fraction: everything the tiered store keeps in RAM (hot
    bytes plus the archive's resident index) as a fraction of hot-only
    hot bytes -- the headline 'resident footprint kept' number."""
    resident = {(row["mode"], row["hot_fraction"]):
                row["hot_bytes"] + row["cold_resident_bytes"]
                for row in rows}
    return {fraction: tiered / resident["hot-only", fraction]
            for (mode, fraction), tiered in resident.items()
            if mode == "tiered"}


def _footprint_summary(rows: Sequence[Row]) -> str:
    kept = ", ".join(f"{fraction:.2f}: {ratio:.0%}" for fraction, ratio
                     in sorted(footprint_reduction(rows).items(),
                               reverse=True))
    return ("resident footprint kept ((hot bytes + cold ram) / hot-only): "
            f"{kept}")


# {hot-only, tiered} x hot fractions over identical seeded access
# streams.
TIERING = Scenario(
    title="Tiering -- hot/cold archive: footprint, promote "
          "cost, archive-reaching erasure",
    axes=(Axis("hot_fraction", HOT_FRACTIONS),
          Axis("mode", ("hot-only", "tiered"))),
    measure=run_tiering_cell,
    sizes=halved_sizes,
    columns=(("mode", "mode"),
             ("hot_frac", lambda row, _rows: f"{row['hot_fraction']:.2f}"),
             ("ops/s", scaled("throughput")),
             ("hot keys", "hot_keys"), ("hot bytes", "hot_bytes"),
             ("cold keys", "cold_keys"),
             ("cold ram", "cold_resident_bytes"),
             ("cold dev", "cold_device_bytes"),
             ("demoted", "demotions"), ("promoted", "promotions"),
             ("cold_rd_us", scaled("cold_read_seconds", 1e6, 2)),
             ("erase_ms", scaled("erase_seconds", 1e3, 3)),
             ("erased", "keys_erased"),
             ("segs voided", "cold_segments_voided")),
    summary=_footprint_summary,
    footnote="Rows pair a hot-only store against the tiered store on "
             "the same seeded\nstream.  'cold ram' is what the archive keeps "
             "resident (key directory and\nsubject blooms, no payload), "
             "'cold dev' its device bytes.  'cold_rd_us' is a\nread that "
             "faults in from the archive (one record read, then promote);"
             "\n'erase_ms' is a full Art. 17 request on a subject whose "
             "records span both\ntiers -- one DEL, its cold tombstones "
             "sharing one fsync, the fsynced\nsubject marker, and the "
             "crypto-erasure.  At hot fraction 1.0 the tiers\nare "
             "indistinguishable.",
)
