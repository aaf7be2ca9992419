"""Integration: crash and recovery across the persistence stack."""

import random

import pytest

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.device.faults import FaultPlan
from repro.device.latency import INTEL_750_SSD
from repro.gdpr.audit import AuditDurability, AuditLog
from repro.kvstore import KeyValueStore, StoreConfig
from repro.kvstore.replication import ReplicationManager
from repro.sqlstore import RelationalStore, SqlConfig
from tests.support import ENGINE_FACTORIES


def make_store(appendfsync="always", **kwargs):
    clock = SimClock()
    log = AppendLog(clock=clock)
    store = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync=appendfsync, **kwargs),
        clock=clock, aof_log=log)
    return store, log, clock


INTERVAL = 1.0     # everysec / the audit's batch_interval
RATE = 8.0         # Poisson writes per second
#: The audit log's names for the two policies.
AUDIT_DURABILITY = {"always": AuditDurability.SYNC,
                    "everysec": AuditDurability.BATCH}


def _engine(engine):
    """(device, write, survivors of keys, at-risk count) of an engine."""
    return (engine.aof_log, lambda key: engine.execute("SET", key, "v"),
            lambda keys: set(keys).intersection(engine.reopen().live_keys(0)),
            None)


def _ssd(clock):
    return AppendLog(clock=clock, latency=INTEL_750_SSD)


def _aof(clock, policy):
    return _engine(KeyValueStore(
        StoreConfig(appendonly=True, appendfsync=policy),
        clock=clock, aof_log=_ssd(clock)))


def _wal(clock, policy):
    return _engine(RelationalStore(
        SqlConfig(wal_enabled=True, wal_fsync=policy),
        clock=clock, wal_log=_ssd(clock)))


def _audit(clock, policy):
    audit = AuditLog(_ssd(clock), clock=clock,
                     durability=AUDIT_DURABILITY[policy],
                     batch_interval=INTERVAL)
    return (audit.log,
            lambda key: audit.append("svc", "put", key=key.decode()),
            lambda keys: {record.key.encode() for record
                          in AuditLog.parse(audit.log.read_all())},
            audit.at_risk_records)


WRITERS = pytest.mark.parametrize("writer", [_aof, _wal, _audit],
                                  ids=["aof", "sql-wal", "audit"])


def _lose_power(writer, policy, seed, idle):
    """Poisson writes on a fresh SSD-latency device, then power loss at
    a seeded instant -- ``idle`` seconds after the last write when given
    (no command runs in between), else anywhere in the run.  Checks that
    the lost writes are the newest ones and that the audit log's
    ``at_risk_records()`` just before the loss is exactly the records
    lost; returns the loss instant, the lost ``(key, acknowledged at)``
    pairs and the device's fsync cost."""
    rng = random.Random(seed)
    clock = SimClock()
    log, write, survivors, at_risk_records = writer(clock, policy)
    stop = crash = rng.uniform(2.0, 8.0)
    arrival = rng.expovariate(RATE)
    acked = []                       # (key, acknowledged at)
    while arrival < stop:
        clock.advance(max(0.0, arrival - clock.now()))
        key = b"k%d" % len(acked)
        write(key)
        acked.append((key, clock.now()))
        arrival += rng.expovariate(RATE)
    if idle is not None:
        crash = acked[-1][1] + idle(rng)
    clock.advance(max(0.0, crash - clock.now()))
    at_risk = at_risk_records() if at_risk_records else None
    FaultPlan(log).power_loss()
    kept = survivors([key for key, _ in acked])
    lost = [(key, at) for key, at in acked if key not in kept]
    assert not lost or acked[-len(lost):] == lost, seed
    if at_risk is not None:
        assert at_risk == len(lost), seed
    return crash, lost, log.latency.fsync


@pytest.mark.parametrize("policy", ["always", "everysec"])
@WRITERS
def test_power_loss_loses_only_the_policy_window(writer, policy):
    """Five seeds per writer: under ``always`` (the audit's SYNC) no
    acknowledged write is lost; under ``everysec`` (BATCH) each lost
    write was acknowledged within one interval plus one device fsync
    before the loss."""
    lost_total = 0
    for seed in range(5):
        crash, lost, fsync = _lose_power(writer, policy, seed, idle=None)
        if policy == "always":
            assert not lost, seed
        else:
            assert all(crash - at <= INTERVAL + fsync for _, at in lost), \
                seed
        lost_total += len(lost)
    assert (lost_total > 0) == (policy == "everysec")


@WRITERS
def test_an_idle_everysec_tail_is_lost_only_within_the_window(writer):
    """Writes stop, and power is lost 0.5-3 s later with no command in
    between: the device's timer still fsyncs the tail, so every write
    acknowledged more than one interval plus one device fsync before
    the loss survives."""
    for seed in range(10):
        crash, lost, fsync = _lose_power(
            writer, "everysec", seed,
            idle=lambda rng: rng.uniform(0.5, 3.0))
        assert all(crash - at <= INTERVAL + fsync for _, at in lost), seed


class TestAofCrashRecovery:
    def test_recovery_after_power_loss(self):
        store, log, _ = make_store()
        for i in range(50):
            store.execute("SET", f"k{i}", f"v{i}")
        FaultPlan(log).power_loss()
        recovered = store.reopen()
        for i in range(50):
            assert recovered.execute("GET", f"k{i}") == f"v{i}".encode()

    def test_torn_tail_recovered_to_prefix(self):
        store, log, _ = make_store()
        store.execute("SET", "a", "1")
        store.execute("SET", "b", "2")
        data = log.read_all()
        torn = data[:-7]  # cut inside the final record
        recovered = KeyValueStore(StoreConfig(appendonly=True))
        recovered.replay_aof(torn)
        assert recovered.execute("GET", "a") == b"1"
        assert recovered.execute("GET", "b") is None

    @pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
    def test_a_torn_tail_is_cut_so_the_next_restart_replays(self, variant):
        """Replay drops a truncated final record (``aof-load-truncated``);
        the restarted writer also cuts its bytes from the device, so the
        next record follows the last whole one and a second restart
        replays it (with the bytes left in place, the next record lands
        behind them and the second restart raises ``corrupt AOF
        stream``)."""
        engine = ENGINE_FACTORIES[variant](SimClock())
        engine.execute("SET", "a", "1")
        engine.execute("SET", "b", "2")
        log = engine.aof_log
        log.flush_and_fsync()
        log.truncate(log.total_length - 3)
        engine = engine.reopen()
        assert engine.execute("GET", "a") == b"1"
        assert engine.execute("GET", "b") is None
        engine.execute("SET", "c", "3")
        engine.aof_log.flush_and_fsync()
        engine = engine.reopen()
        assert [engine.execute("GET", key) for key in ("a", "b", "c")] \
            == [b"1", None, b"3"]

    @pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
    @pytest.mark.parametrize("power_loss", [True, False],
                             ids=["power-loss", "process-restart"])
    def test_two_restarts_replay_the_same_writes(self, variant, power_loss):
        """Regression: a restart replayed the durable prefix but left the
        bytes past it on the device, so the next fsync made a write that
        the restart had dropped durable, and a second restart served
        it.  A write a power loss took stays lost; one the process had
        written survives its restart (the operating system holds it and
        writes it back) and a power loss after that."""
        engine = ENGINE_FACTORIES[variant](SimClock())
        engine.execute("SET", "a", "1")
        engine.aof_log.flush_and_fsync()
        engine.execute("SET", "b", "2")
        engine.aof_log.flush()
        plan = FaultPlan(engine.aof_log)
        if power_loss:
            plan.power_loss()
        engine = engine.reopen()
        engine.execute("SET", "c", "3")
        engine.aof_log.flush_and_fsync()
        plan.power_loss()
        engine = engine.reopen()
        assert [engine.execute("GET", key) for key in ("a", "b", "c")] \
            == [b"1", None if power_loss else b"2", b"3"]

    def test_replay_equivalence_after_rewrite(self):
        store, log, _ = make_store()
        for i in range(30):
            store.execute("SET", f"k{i % 5}", f"v{i}")
        store.execute("DEL", "k0")
        store.rewrite_aof()
        recovered = store.reopen()
        for key in (b"k1", b"k2", b"k3", b"k4"):
            assert recovered.databases[0].get_value(key) == \
                store.databases[0].get_value(key)
        assert recovered.execute("GET", "k0") is None

    def test_write_failure_does_not_corrupt_log(self):
        store, log, _ = make_store()
        plan = FaultPlan(log)
        store.execute("SET", "a", "1")
        plan.fail("flush")
        # The flush fails mid-command; the record stays buffered.
        with pytest.raises(Exception):
            store.execute("SET", "b", "2")
        store.execute("SET", "c", "3")  # retries flush, includes b's record
        recovered = store.reopen()
        assert recovered.execute("GET", "a") == b"1"
        assert recovered.execute("GET", "c") == b"3"


class TestSnapshotPlusAof:
    @pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
    def test_full_sync_then_aof_tail(self, variant):
        # The classic recovery flow: load the image a full sync ships,
        # then replay the log written after it.
        store = ENGINE_FACTORIES[variant](SimClock())
        store.execute("SET", "base", "v1")
        manager = ReplicationManager(store, delays=[0.0])
        manager.close()
        synced = store.aof.read_all()
        store.execute("SET", "base", "v2")
        store.execute("SET", "extra", "x")

        recovered = manager.links[0].replica
        assert recovered.execute("GET", "base") == b"v1"
        log = store.aof.read_all()
        assert log.startswith(synced)
        recovered.replay_aof(log[len(synced):])
        assert recovered.execute("GET", "base") == b"v2"
        assert recovered.execute("GET", "extra") == b"x"

    def test_expired_key_not_resurrected_by_replay(self):
        store, log, clock = make_store(expiry_strategy="fullscan")
        store.execute("SET", "k", "v", "EX", 10)
        clock.advance(20)
        # PEXPIREAT lands in the past -> deleted during replay.
        assert store.reopen().execute("GET", "k") is None
