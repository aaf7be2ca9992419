"""One barrier per request per device.

Every :class:`GDPRStore` request -- ``get``, ``put``, ``delete``,
``update``, ``update_metadata`` and each right's per-store part -- runs
in one barrier scope over the audit device and the engine's log.  Under
SYNC audit and an ``always`` log, each device the request wrote pays one
fsync at the request's end, the audit device's first: a power cut
between the two barriers can leave an audit record of a write whose data
was lost, never durable data whose processing is unaudited.  Outside a
request, an ``always`` command is durable as it returns, and the seals
that order later writes (a cold segment, an audit block) are barriers as
written even inside a scope.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DeviceIOError
from repro.device.append_log import AppendLog, BarrierScope
from repro.device.faults import FaultPlan
from repro.device.latency import INTEL_750_SSD
from repro.gdpr.audit import AuditDurability, AuditLog
from repro.gdpr.metadata import GDPRMetadata, unpack_envelope
from repro.gdpr.rights import right_of_access, right_to_erasure
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore import KeyValueStore, StoreConfig
from repro.kvstore.commands import deadline_ms
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieredEngine, TieringConfig
from tests.support import (
    crashpoints, durable_audit, pre_or_post, restarts_agree)

SERVICE = frozenset({"service"})
KEYS = 5


def _always_kv(clock):
    return KeyValueStore(
        StoreConfig(appendonly=True, appendfsync="always",
                    aof_log_reads=True),
        clock=clock, aof_log=AppendLog(clock=clock))


def _always_sql(clock):
    return RelationalStore(
        SqlConfig(wal_enabled=True, wal_fsync="always", wal_log_reads=True),
        clock=clock, wal_log=AppendLog(clock=clock))


ENGINES = {"redislike": _always_kv, "relational": _always_sql}


def _tiered_always_kv(clock):
    return TieredEngine(_always_kv(clock),
                        tiering=TieringConfig(demote_idle_after=10.0,
                                              demote_interval=1.0,
                                              segment_max_records=8))


STACKS = {**ENGINES, "tiered-redislike": _tiered_always_kv}


def _strict(variant, encrypt=True):
    """The headline strict stack: an ``always`` log with read logging
    under synchronous hash-chained audit, each on its own device."""
    clock = SimClock()
    audit = AuditLog(AppendLog(clock=clock, name="audit.log"), clock=clock,
                     durability=AuditDurability.SYNC)
    return GDPRStore(kv=STACKS[variant](clock), audit=audit,
                     config=GDPRConfig(encrypt_at_rest=encrypt,
                                       audit_durability=AuditDurability.SYNC))


def _meta(owner, ttl=None):
    return GDPRMetadata(owner=owner, purposes=SERVICE, ttl=ttl)


def _fsyncs(store):
    return store.kv.aof_log.fsyncs, store.audit.log.fsyncs


def _append(suffix):
    return lambda value: value + suffix


@pytest.mark.parametrize("variant", sorted(ENGINES))
class TestBarriersPerRequest:
    """Before requests were scopes, each paid one fsync per record on
    each device: an update 2 log + 2 audit (3 + 2 on the relational
    engine, whose put also writes a ``GDPRMETA`` record), a put with a
    TTL 2 on the log (3), Art. 15 of a k-key subject k + k + 1,
    processing k records for a purpose k + k; a bare get paid 1 + 1,
    as it still does."""

    def test_an_update_pays_one_fsync_per_device(self, variant):
        store = _strict(variant)
        store.put("k", b"v0", _meta("alice"), purpose="service")
        before = _fsyncs(store)
        blocks, writes = store.audit.blocks_sealed, store.audit.log.syscalls
        store.update("k", _append(b"+1"), purpose="service")
        after = _fsyncs(store)
        assert (after[0] - before[0], after[1] - before[1]) == (1, 1)
        # The update's two records are one block: one line, one write.
        assert (store.audit.blocks_sealed - blocks,
                store.audit.log.syscalls - writes) == (1, 1)
        assert store.get("k").value == b"v0+1"
        assert [record.operation for record in store.audit.records()[-3:]] \
            == ["get", "put", "get"]

    def test_a_put_with_a_ttl_pays_one_log_fsync(self, variant):
        store = _strict(variant)
        before = _fsyncs(store)
        store.put("k", b"v", _meta("alice", ttl=3600.0), purpose="service")
        after = _fsyncs(store)
        assert (after[0] - before[0], after[1] - before[1]) == (1, 1)

    def test_access_to_a_k_key_subject_pays_one_audit_fsync(self, variant):
        store = _strict(variant)
        for i in range(KEYS):
            store.put(f"k{i}", b"v", _meta("alice"), purpose="service")
        records = store.audit.record_count
        before = _fsyncs(store)
        report = right_of_access(store, "alice")
        after = _fsyncs(store)
        assert len(report.records) == KEYS
        assert store.audit.record_count - records == KEYS + 1
        assert (after[0] - before[0], after[1] - before[1]) == (1, 1)

    def test_processing_for_a_purpose_pays_one_fsync_per_device(
            self, variant):
        store = _strict(variant)
        for i in range(6):
            store.put(f"k{i}", b"v", _meta(f"s{i}"), purpose="service")
        before = _fsyncs(store)
        assert len(store.process_for_purpose("service")) == 6
        after = _fsyncs(store)
        assert (after[0] - before[0], after[1] - before[1]) == (1, 1)

    def test_a_bare_get_pays_one_fsync_per_device(self, variant):
        store = _strict(variant)
        store.put("k", b"v", _meta("alice"), purpose="service")
        before = _fsyncs(store)
        store.get("k", purpose="service")
        after = _fsyncs(store)
        assert (after[0] - before[0], after[1] - before[1]) == (1, 1)

    def test_a_record_and_its_deadline_are_one_command_and_one_record(
            self, variant):
        """A put with a TTL is one ``SET..PXAT`` (plus the relational
        engine's ``GDPRMETA``), and an update a logged ``GET`` and that
        put: 1 and 2 engine commands (2 and 3), each one log record.  A
        ``SET`` followed by a ``PEXPIREAT`` made them 2 and 3 (3 and
        4)."""
        store = _strict(variant)
        columns = variant == "relational"
        for work, commands in (
                (lambda: store.put("k", b"v0", _meta("alice", ttl=3600.0),
                                   purpose="service"), 1 + columns),
                (lambda: store.update("k", _append(b"+1"),
                                      purpose="service"), 2 + columns)):
            before = (store.kv.stats.commands_processed,
                      store.kv.aof_log.appends)
            work()
            assert (store.kv.stats.commands_processed - before[0],
                    store.kv.aof_log.appends - before[1]) \
                == (commands, commands)
        assert store.kv.execute("PEXPIRETIME", "k") == 3_600_000

    def test_an_engine_command_outside_a_request_is_durable_as_it_returns(
            self, variant):
        engine = ENGINES[variant](SimClock())
        log = engine.aof_log
        engine.execute("SET", "k", b"v")
        assert log.fsyncs == 1 and log.unsynced_bytes == 0
        engine.execute("GET", "k")
        assert log.fsyncs == 2 and log.unsynced_bytes == 0


def _values(engine):
    """key -> value of every key in ``engine``, read without a logged
    command."""
    return {record[0]: unpack_envelope(record[1])[1]
            for record in engine.scan_records(0)}


def _durable_ops(store, key):
    """The operation and outcome of each durable audit record of ``key``,
    the durable chain verified."""
    return [(record.operation, record.outcome)
            for record in durable_audit(store.audit) if record.key == key]


def _devices(store):
    """The stack's devices: the audit log's, the engine log's and a
    tiered engine's cold device."""
    cold = [store.kv.cold.device] if store.kv.supports_tiering else []
    return [store.audit.log, store.kv.aof_log, *cold]


@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_power_loss_at_every_step_of_a_strict_update(variant):
    """A cut before each device operation of an update: the recovered
    key holds its old or its new value; an update that returned is
    durable with both of its audit records; the durable audit chain
    verifies; and the new value is never durable without the audit
    record of the ``put`` that wrote it -- the audit barrier comes
    first, so some cut falls between the two barriers and leaves the
    audit records durable and the engine record not."""
    def build():
        store = _strict(variant, encrypt=False)
        store.put("k", b"old", _meta("alice"), purpose="service")
        return store

    outcomes = set()
    for point in crashpoints(
            build,
            lambda store: store.update("k", lambda value: b"new",
                                       purpose="service"),
            _devices):
        recovered = restarts_agree(point, lambda store: _values(store.kv))
        pre_or_post(recovered, {b"k": b"old"}, {b"k": b"new"})
        value = recovered.get(b"k")
        audited = _durable_ops(point.stack, "k")[1:]    # past the first put
        if value == b"new":
            assert audited == [("get", "ok"), ("put", "ok")], point.lost
        if point.lost is None:
            assert value == b"new"
        else:
            outcomes.add((value, len(audited)))
    # One barrier per device, both at the request's end.
    steps = point.steps
    assert steps.count("fsync") == 2 and steps[-2:] == ["fsync", "fsync"]
    # Old value everywhere; both records durable and the data lost (a
    # cut between the barriers); never the new value without them.
    assert (b"old", 0) in outcomes and (b"old", 2) in outcomes


class _Timeline(FaultPlan):
    """A fault plan that also notes the clock at each device step."""

    def __init__(self, clock, *logs):
        super().__init__(*logs)
        self.clock = clock
        self.times = []

    def step(self, log, op):
        self.times.append(self.clock.now())
        super().step(log, op)


def _timed_strict(variant, fsync):
    """The strict stack at SSD latency, each engine command and log
    record charged as in the benchmark, the engine's log under
    ``fsync``: an ``everysec`` log's timer fires at each whole second."""
    clock = SimClock()
    audit = AuditLog(AppendLog(clock=clock, name="audit.log",
                               latency=INTEL_750_SSD),
                     clock=clock, durability=AuditDurability.SYNC)
    log = AppendLog(clock=clock, latency=INTEL_750_SSD)
    if variant == "redislike":
        engine = KeyValueStore(
            StoreConfig(appendonly=True, appendfsync=fsync,
                        aof_log_reads=True, command_cpu_cost=25e-6,
                        aof_record_base_cost=75e-6),
            clock=clock, aof_log=log)
    else:
        engine = RelationalStore(
            SqlConfig(wal_enabled=True, wal_fsync=fsync, wal_log_reads=True,
                      statement_cpu_cost=45e-6, wal_record_base_cost=75e-6),
            clock=clock, wal_log=log)
    return GDPRStore(kv=engine, audit=audit,
                     config=GDPRConfig(encrypt_at_rest=False,
                                       audit_durability=AuditDurability.SYNC))


def _put_with_a_ttl(store):
    store.put("k", b"v", _meta("alice", ttl=3600.0), purpose="service")


@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_power_loss_at_every_step_of_a_strict_put_with_a_ttl(variant):
    """A cut before each device operation of a put with a retention
    deadline, the put started so that the ``everysec`` log's timer
    fires just before or just after each of its steps (and once under
    an ``always`` log): the recovered key is absent or holds its
    deadline -- the value and its deadline are one log record -- and a
    recovered key's ``put`` is in the durable audit -- a firing inside
    the request waits for the request's audit barrier."""
    instant = 1.0                           # the everysec timer's first
    store = _timed_strict(variant, "everysec")
    store.clock.advance(instant / 2)
    plan = _Timeline(store.clock, store.audit.log, store.kv.aof_log)
    began = store.clock.now()
    _put_with_a_ttl(store)
    steps = sorted({time - began + side * 1e-7 for time in plan.times
                    for side in (-1, 1)})
    for fsync, offsets in (("everysec", steps), ("always", [instant / 2])):
        fired = 0
        for offset in offsets:
            def build():
                store = _timed_strict(variant, fsync)
                store.clock.advance(instant - offset)
                return store

            deadline = int((build().clock.now() + 3600.0) * 1000)
            for point in crashpoints(build, _put_with_a_ttl, _devices):
                recovered = restarts_agree(point, lambda store: [
                    record.expire_at for record in store.kv.scan_records(0)])
                if recovered:
                    assert recovered[0] is not None \
                        and deadline_ms(recovered[0]) == deadline, \
                        (fsync, offset, point.lost)
                    assert ("put", "ok") in _durable_ops(point.stack, "k"), \
                        (fsync, offset, point.lost)
            fired += point.steps.count("fsync") > 1
        if fsync == "everysec":             # the timer fired mid-put
            assert fired


@pytest.mark.parametrize("variant", sorted(STACKS))
def test_power_loss_at_every_step_of_a_strict_erasure(variant):
    """A cut before each device operation of an Art. 17 erasure: wherever
    the restarted store has lost one of the subject's keys, the durable
    audit holds the ``erase-subject`` record.  It is made durable before
    the erasure's first step, so before the first barrier it pays as
    written: the log rewrite's, or on a tiered store the cold barrier
    over the ``DEL``'s tombstones and the subject marker (a demotion due
    meanwhile waits for the next command).  The request pays
    one audit fsync, a tiered one too: the engine's ``tier-cold-erase``
    record is appended before that commit, ahead of its cold barrier."""
    keys = ["a0", "a1", "a2"]

    def build():
        store = _strict(variant, encrypt=False)
        for key in keys:
            store.put(key, b"v", _meta("alice"), purpose="service")
        store.put("b0", b"v", _meta("bob"), purpose="service")
        if store.kv.supports_tiering:
            store.kv.demote_keys([b"a0", b"a1"])
            store.clock.advance(20.0)   # a demotion of b0 is due
        return store

    def erase(store):
        fsyncs = store.audit.log.fsyncs
        right_to_erasure(store, "alice")
        assert store.audit.log.fsyncs - fsyncs == 1
        if store.kv.supports_tiering:   # the due demotion waits
            assert store.kv.inner.has_live_key(b"b0")

    def held_keys(store):
        return [key for key in keys
                if store.kv.has_live_key(key.encode("utf-8"))]

    for point in crashpoints(build, erase, _devices):
        audited = [record.operation
                   for record in durable_audit(point.stack.audit)
                   if record.subject == "alice"]
        held = restarts_agree(point, held_keys)
        if held != keys:
            assert "erase-subject" in audited, point.lost
        if point.lost is None:
            assert held == []
    # The erasure's record (and a tiered engine's cold-erase record) is
    # sealed as one block, written and committed before any engine step.
    assert point.steps[:3] == ["append", "flush", "fsync"]


@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_the_erasure_record_names_what_the_erasure_does(variant):
    """The record is written before the erasure runs, from what it will
    do: its detail fields match the erasure's own report."""
    store = _strict(variant)
    for key in ("a0", "a1", "a2"):
        store.put(key, b"v", _meta("alice"), purpose="service")
    report = right_to_erasure(store, "alice")
    [record] = [record for record in durable_audit(store.audit)
                if record.operation == "erase-subject"]
    assert (record.subject, record.outcome) == ("alice", "ok")
    assert record.detail == (
        f"3 keys, crypto={report.crypto_erased}, "
        f"compacted={report.log_compacted}")
    assert report.crypto_erased and report.log_compacted


def test_the_cold_erase_record_names_the_segments_the_erasure_voids():
    """A tiered erasure's ``tier-cold-erase`` record is written before
    the erasure runs, in the erasure's one audit commit: the segment
    count it names is the receipt's."""
    store = _strict("tiered-redislike")
    for key in ("a0", "a1", "a2", "b0"):
        store.put(key, b"v", _meta("alice" if key[0] == "a" else "bob"),
                  purpose="service")
    store.kv.demote_keys([b"a0", b"b0"])
    store.kv.demote_keys([b"a1"])
    fsyncs = store.audit.log.fsyncs
    report = right_to_erasure(store, "alice")
    assert store.audit.log.fsyncs - fsyncs == 1
    records = [record for record in durable_audit(store.audit)
               if record.subject == "alice"]
    assert [record.operation for record in records[-2:]] == [
        "erase-subject", "tier-cold-erase"]
    assert report.cold_segments_voided == 2
    assert records[-1].detail == "2 segments voided"


def test_an_erasure_keeps_a_windowed_audit_s_window():
    """Only a SYNC audit makes the erasure's record durable ahead of the
    erasure: under BATCH it waits for the audit's own window like every
    other record."""
    clock = SimClock()
    durability = AuditDurability.BATCH
    audit = AuditLog(AppendLog(clock=clock, name="audit.log"), clock=clock,
                     durability=durability)
    store = GDPRStore(kv=_always_kv(clock), audit=audit,
                      config=GDPRConfig(audit_durability=durability))
    for key in ("a0", "a1"):
        store.put(key, b"v", _meta("alice"), purpose="service")
    fsyncs = audit.log.fsyncs
    report = right_to_erasure(store, "alice")
    assert report.log_compacted
    assert audit.log.fsyncs == fsyncs
    assert audit.at_risk_records() > 0


@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_processing_for_a_purpose_audits_every_record_it_reads(variant):
    store = _strict(variant)
    for i in range(6):
        store.put(f"k{i}", b"v", _meta(f"s{i}"), purpose="service")
    seq = store.audit.record_count
    records = store.process_for_purpose("service")
    assert [record.value for record in records] == [b"v"] * 6
    audited = AuditLog.parse(store.audit.log.read_durable())[seq:]
    assert sorted(record.subject for record in audited) == [
        f"s{i}" for i in range(6)]
    assert {(record.purpose, record.outcome) for record in audited} == {
        ("service", "ok")}
    assert store.audit.at_risk_records() == 0


@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_a_failed_audit_barrier_leaves_the_write_unsynced(variant):
    """The audit device's barrier runs first, and a failed one stops the
    request: the engine's record is not made durable without its audit
    record (two nested ``with`` scopes would still fsync the log after
    the audit device's barrier failed)."""
    store = _strict(variant)
    log = store.kv.aof_log
    FaultPlan(store.audit.log).fail("fsync")
    durable = log.durable_length
    with pytest.raises(DeviceIOError):
        store.put("k", b"v", _meta("alice"), purpose="service")
    assert log.durable_length == durable and log.unsynced_bytes > 0
    store.get("k")          # the next request's barriers cover both
    assert log.unsynced_bytes == 0 and store.audit.at_risk_records() == 0


@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_records_deferred_in_a_request_are_at_risk_until_it_returns(
        variant):
    store = _strict(variant)
    store.put("k", b"v", _meta("alice"), purpose="service")
    assert store.audit.at_risk_records() == 0
    seen = []

    def merge(value):
        seen.append(store.audit.at_risk_records())
        return value + b"!"

    store.update("k", merge, purpose="service")
    assert seen == [1]                  # the get's record, not yet synced
    assert store.audit.at_risk_records() == 0
    right_of_access(store, "alice")
    assert store.audit.at_risk_records() == 0


def test_an_audit_block_seal_in_a_scope_is_durable_as_it_returns():
    clock = SimClock()
    log = AppendLog(clock=clock)
    audit = AuditLog(log, clock=clock, durability=AuditDurability.BATCH,
                     block_size=100)
    with BarrierScope(log):
        for _ in range(3):
            audit.append("p", "get")
        audit.seal_block()
        FaultPlan(log).power_loss()         # a cut right after the call
    assert audit.verify_durable() == 3


def test_a_scope_over_one_device_named_twice_pays_one_fsync():
    log = AppendLog()
    with BarrierScope(log, None, log):
        log.append(b"a")
        log.commit()
        assert log.fsyncs == 0
    assert (log.durable_length, log.fsyncs) == (1, 1)
