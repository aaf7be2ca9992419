"""The four systems under test, built from public constructors only.

The configurations mirror the repo's own bench scenarios -- ``backends``
(``full-gdpr`` on ``redislike``, ``fast-gdpr`` on ``relational``),
``workers`` (event-driven cluster, AOF-logged shards) and ``tiering`` -- but
the cost constants are frozen here rather than imported from ``repro.bench``,
so a later refactor of the bench harness cannot silently move this
benchmark's numbers.  Every device is a :class:`CountingLog`, which adds the
one thing ``AppendLog`` does not count: bytes ever written.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster import ClusterClient, build_cluster
from repro.common.clock import Clock, SimClock
from repro.device.append_log import AppendLog
from repro.device.latency import INTEL_750_SSD
from repro.engine.base import StorageEngine
from repro.gdpr.audit import AuditDurability, AuditLog
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieredEngine, TieringConfig
from repro.ycsb.adapters import GDPRAdapter, KVAdapter, SqlAdapter

# Frozen copies of repro.bench.calibration / repro.bench.backends /
# repro.bench.tiering as of the commit this benchmark landed on.
COMMAND_CPU = 25e-6
ONE_WAY_LATENCY = 10e-6
LOG_RECORD_BASE_COST = 75e-6
LOG_RECORD_PER_BYTE = 30e-9
AUDIT_RECORD_CPU = 5e-6
SQL_STATEMENT_CPU = 45e-6
SQL_PARSE_COST = 120e-6
SQL_PLAN_COST = 60e-6
SQL_INDEX_NODE_COST = 2e-6
SQL_ROW_BASE_COST = 6e-6
SQL_ROW_PER_BYTE = 8e-9
RETENTION_TTL = 3600.0
FAST_AUDIT_BLOCK = 64
DEMOTE_IDLE_AFTER = 60.0
DEMOTE_INTERVAL = 30.0
SEGMENT_MAX_RECORDS = 32
PURPOSE = "service"


class CountingLog(AppendLog):
    """An ``AppendLog`` that also counts every byte handed to the device
    (appends and compaction rewrites), which ``total_length`` forgets the
    moment a rewrite shrinks the file."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bytes_written = 0

    def append(self, data: bytes) -> None:
        self.bytes_written += len(data)
        super().append(data)

    def replace(self, data: bytes) -> None:
        self.bytes_written += len(data)
        super().replace(data)


class Devices:
    """Totals over every device a built system writes to."""

    devices: List[CountingLog]

    def device_bytes(self) -> int:
        return sum(device.bytes_written for device in self.devices)

    def device_fsyncs(self) -> int:
        return sum(device.fsyncs for device in self.devices)

    def device_syscalls(self) -> int:
        return sum(device.syscalls for device in self.devices)


class Stack(Devices):
    """A built closed-loop system: what the driver and the metric code
    need from it."""

    def __init__(self, clock: SimClock, adapter, devices: List[CountingLog],
                 store: Optional[GDPRStore] = None,
                 engine: Optional[StorageEngine] = None) -> None:
        self.clock = clock
        self.adapter = adapter
        self.devices = devices
        self.store = store
        self.engine = engine


class GroupedGDPRAdapter(GDPRAdapter):
    """``GDPRAdapter`` with several records per data subject, so a rights
    request touches a group of keys (the stock adapter gives every record
    its own subject)."""

    def __init__(self, store: GDPRStore, subject_of: Callable[[str], str],
                 ttl: Optional[float] = None) -> None:
        super().__init__(store, purpose=PURPOSE, ttl=ttl)
        self._subject_of = subject_of

    def _metadata_for(self, key: str) -> GDPRMetadata:
        return GDPRMetadata(owner=self._subject_of(key),
                            purposes=frozenset({self.purpose}),
                            ttl=self.ttl)


def _ssd(clock: Clock, name: str) -> CountingLog:
    return CountingLog(clock=clock, latency=INTEL_750_SSD, name=name)


def _logged_kv(clock: Clock, log: CountingLog, log_reads: bool,
               seed: int = 0) -> KeyValueStore:
    return KeyValueStore(
        StoreConfig(command_cpu_cost=COMMAND_CPU, appendonly=True,
                    appendfsync="everysec", aof_log_reads=log_reads,
                    aof_record_base_cost=LOG_RECORD_BASE_COST,
                    aof_record_per_byte_cost=LOG_RECORD_PER_BYTE,
                    seed=seed),
        clock=clock, aof_log=log)


def _raw_kv(clock: Clock, seed: int = 0) -> KeyValueStore:
    return KeyValueStore(
        StoreConfig(command_cpu_cost=COMMAND_CPU, seed=seed), clock=clock)


def _relational(clock: Clock, log: CountingLog,
                log_reads: bool) -> RelationalStore:
    return RelationalStore(
        SqlConfig(wal_enabled=True, wal_fsync="everysec",
                  wal_log_reads=log_reads,
                  wal_record_base_cost=LOG_RECORD_BASE_COST,
                  wal_record_per_byte_cost=LOG_RECORD_PER_BYTE,
                  statement_cpu_cost=SQL_STATEMENT_CPU,
                  statement_parse_cost=SQL_PARSE_COST,
                  statement_plan_cost=SQL_PLAN_COST,
                  index_node_cost=SQL_INDEX_NODE_COST,
                  row_base_cost=SQL_ROW_BASE_COST,
                  row_per_byte_cost=SQL_ROW_PER_BYTE, seed=0),
        clock=clock, wal_log=log)


# -- strict_kv ---------------------------------------------------------------

def strict_kv() -> Stack:
    """``backends`` row ``redislike / full-gdpr``: AOF everysec with read
    logging, synchronous hash-chained audit on an SSD-latency log,
    per-subject encryption, TTL 3600."""
    clock = SimClock()
    aof = _ssd(clock, "appendonly.aof")
    audit_dev = _ssd(clock, "audit.log")
    engine = _logged_kv(clock, aof, log_reads=True)
    audit = AuditLog(log=audit_dev, clock=clock,
                     durability=AuditDurability.SYNC,
                     record_cpu_cost=AUDIT_RECORD_CPU)
    store = GDPRStore(
        kv=engine,
        config=GDPRConfig(encrypt_at_rest=True,
                          audit_durability=AuditDurability.SYNC,
                          compact_on_erasure=False),
        audit=audit)
    return Stack(clock, GDPRAdapter(store, ttl=RETENTION_TTL),
                 [aof, audit_dev], store=store, engine=engine)


def strict_kv_baseline() -> Stack:
    """``backends`` row ``redislike / baseline``: the raw engine, no log."""
    clock = SimClock()
    engine = _raw_kv(clock)
    return Stack(clock, KVAdapter(engine, maintain_scan_index=False), [],
                 engine=engine)


# -- fast_sql_rights ---------------------------------------------------------

def fast_sql_rights(subject_of: Callable[[str], str]) -> Stack:
    """``backends`` row ``relational / fast-gdpr`` (64-record audit blocks,
    write-behind indexing, cipher cache), with log compaction on erasure
    switched on -- the store's default, and what keeps an Art. 17 residual
    check from re-reading an ever-growing WAL."""
    clock = SimClock()
    wal = _ssd(clock, "records.wal")
    audit_dev = _ssd(clock, "audit.log")
    engine = _relational(clock, wal, log_reads=True)
    audit = AuditLog(log=audit_dev, clock=clock,
                     durability=AuditDurability.BATCH, batch_interval=1.0,
                     record_cpu_cost=AUDIT_RECORD_CPU, chain_mode="block",
                     block_size=FAST_AUDIT_BLOCK)
    store = GDPRStore(
        kv=engine,
        config=GDPRConfig(encrypt_at_rest=True,
                          audit_durability=AuditDurability.BATCH,
                          compact_on_erasure=True, fast_gdpr=True,
                          audit_block_size=FAST_AUDIT_BLOCK),
        audit=audit)
    return Stack(clock,
                 GroupedGDPRAdapter(store, subject_of, ttl=RETENTION_TTL),
                 [wal, audit_dev], store=store, engine=engine)


def fast_sql_rights_baseline() -> Stack:
    """``backends`` row ``relational / baseline``: WAL on (durable by
    design), no statement logging of reads, no GDPR layer."""
    clock = SimClock()
    wal = _ssd(clock, "records.wal")
    engine = _relational(clock, wal, log_reads=False)
    return Stack(clock, SqlAdapter(engine), [wal], engine=engine)


# -- tiered_cold -------------------------------------------------------------

def _tiering_gdpr(engine: StorageEngine, clock: SimClock,
                  devices: List[CountingLog],
                  subject_of: Callable[[str], str]) -> Stack:
    audit_dev = CountingLog(clock=clock, name="audit.log")
    store = GDPRStore(kv=engine,
                      config=GDPRConfig(encrypt_at_rest=True,
                                        compact_on_erasure=True),
                      audit=AuditLog(log=audit_dev, clock=clock))
    return Stack(clock, GroupedGDPRAdapter(store, subject_of),
                 devices + [audit_dev], store=store, engine=engine)


def tiered_cold(subject_of: Callable[[str], str]) -> Stack:
    """The ``tiering`` bench stack: ``TieredEngine`` over an AOF-logged
    ``redislike`` engine, cold segments on their own SSD-latency device,
    under an encrypting ``GDPRStore`` (default synchronous audit on a free
    device, as in that bench)."""
    clock = SimClock()
    aof = _ssd(clock, "appendonly.aof")
    cold = _ssd(clock, "cold.seg")
    engine = TieredEngine(
        _logged_kv(clock, aof, log_reads=False), device=cold,
        tiering=TieringConfig(demote_idle_after=DEMOTE_IDLE_AFTER,
                              demote_interval=DEMOTE_INTERVAL,
                              segment_max_records=SEGMENT_MAX_RECORDS))
    return _tiering_gdpr(engine, clock, [aof, cold], subject_of)


def tiered_cold_baseline(subject_of: Callable[[str], str]) -> Stack:
    """The same store with every record kept hot."""
    clock = SimClock()
    aof = _ssd(clock, "appendonly.aof")
    return _tiering_gdpr(_logged_kv(clock, aof, log_reads=False), clock,
                         [aof], subject_of)


# -- openloop_cores ----------------------------------------------------------

SHARDS = 2
WORKERS = 2


class Cluster(Devices):
    """An event-driven cluster plus the devices behind its shards."""

    def __init__(self, client: ClusterClient,
                 devices: List[CountingLog]) -> None:
        self.client = client
        self.clock: SimClock = client.clock
        self.devices = devices


def openloop_cores(logged: bool = True) -> Cluster:
    """``workers`` bench shape: 2 shards x 2 simulated cores with adaptive
    batching on one event scheduler; shards are AOF-logged KV stores with
    read logging (``logged=False`` gives the unlogged baseline)."""
    devices: List[CountingLog] = []

    def make(index: int, clock: Clock) -> KeyValueStore:
        if not logged:
            return _raw_kv(clock, seed=index)
        log = _ssd(clock, f"shard{index}.aof")
        devices.append(log)
        return _logged_kv(clock, log, log_reads=True, seed=index)

    client = build_cluster(SHARDS, store_factory=make,
                           latency=ONE_WAY_LATENCY, event_driven=True,
                           workers=WORKERS, adaptive_batch=True)
    return Cluster(client, devices)
