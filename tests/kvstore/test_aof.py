"""Tests for AOF persistence: policies, read logging, replay, rewrite."""

import gc
import weakref

import pytest

from repro.common.clock import SimClock
from repro.common.errors import PersistenceError
from repro.common.resp import encode_command
from repro.device.append_log import AppendLog
from repro.device.faults import FaultPlan
from repro.device.latency import INTEL_750_SSD
from repro.kvstore import KeyValueStore, StoreConfig, contains_key, replay_commands
from tests.support import assert_refused


def make_store(clock=None, **config):
    clock = clock if clock is not None else SimClock()
    defaults = dict(appendonly=True, appendfsync="everysec")
    defaults.update(config)
    return KeyValueStore(StoreConfig(**defaults), clock=clock), clock


class TestWritePath:
    def test_writes_recorded(self):
        store, _ = make_store()
        store.execute("SET", "k", "v")
        commands = replay_commands(store.aof_log.read_all())
        assert [b"SET", b"k", b"v"] in commands

    def test_reads_skipped_by_default(self):
        store, _ = make_store()
        store.execute("SET", "k", "v")
        store.execute("GET", "k")
        commands = replay_commands(store.aof_log.read_all())
        assert [b"GET", b"k"] not in commands

    def test_reads_logged_with_flag(self):
        store, _ = make_store(aof_log_reads=True)
        store.execute("SET", "k", "v")
        store.execute("GET", "k")
        commands = replay_commands(store.aof_log.read_all())
        assert [b"GET", b"k"] in commands
        assert store.aof.reads_logged == 1

    def test_failed_write_not_logged_as_write(self):
        store, _ = make_store()
        store.execute("SET", "k", "v")
        store.execute("SET", "k", "w", "NX")  # fails: key exists
        commands = replay_commands(store.aof_log.read_all())
        assert [b"SET", b"k", b"w", b"NX"] not in commands

    def test_expire_propagated_as_pexpireat(self):
        store, _ = make_store()
        store.execute("SET", "k", "v")
        store.execute("EXPIRE", "k", 100)
        commands = replay_commands(store.aof_log.read_all())
        assert any(c[0] == b"PEXPIREAT" for c in commands)
        assert not any(c[0] == b"EXPIRE" for c in commands)

    def test_active_expiry_propagates_del(self):
        store, clock = make_store(expiry_strategy="fullscan")
        store.execute("SET", "k", "v", "EX", 5)
        clock.advance(6)
        store.cron()
        commands = replay_commands(store.aof_log.read_all())
        assert [b"DEL", b"k"] in commands

    def test_select_emitted_on_db_switch(self):
        store, _ = make_store()
        session = store.session()
        store.execute("SELECT", 2, session=session)
        store.execute("SET", "k", "v", session=session)
        commands = replay_commands(store.aof_log.read_all())
        assert [b"SELECT", b"2"] in commands


class TestFsyncPolicies:
    def test_always_durable_immediately(self):
        store, _ = make_store(appendfsync="always")
        store.execute("SET", "k", "v")
        assert store.aof_log.unsynced_bytes == 0
        assert store.aof_log.durable_length > 0

    def test_everysec_defers_fsync(self):
        store, clock = make_store(appendfsync="everysec")
        store.execute("SET", "k", "v")
        assert store.aof_log.durable_length == 0
        clock.advance(1.1)
        store.tick()
        assert store.aof_log.durable_length > 0

    def test_no_policy_never_fsyncs(self):
        store, clock = make_store(appendfsync="no")
        store.execute("SET", "k", "v")
        clock.advance(100)
        store.tick()
        assert store.aof_log.fsyncs == 0

    def test_everysec_exposure_window(self):
        store, clock = make_store(appendfsync="everysec")
        clock.advance(1.1)
        store.tick()
        store.execute("SET", "k", "v")
        assert store.aof.unsynced_bytes() > 0
        FaultPlan(store.aof_log).power_loss()
        # Power loss before the next fsync loses the last second of ops.
        assert store.reopen().execute("GET", "k") is None

    def test_always_survives_power_loss(self):
        store, _ = make_store(appendfsync="always")
        store.execute("SET", "k", "v")
        FaultPlan(store.aof_log).power_loss()
        assert store.reopen().execute("GET", "k") == b"v"

    def test_bad_policy_rejected(self):
        with pytest.raises(PersistenceError):
            make_store(appendfsync="sometimes")


class TestReplay:
    def test_replay_reconstructs_all_types(self):
        store, _ = make_store()
        store.execute("SET", "s", "v")
        store.execute("HSET", "h", "f", "v")
        store.execute("ZADD", "z", "1", "m")
        fresh = KeyValueStore(StoreConfig(appendonly=True))
        count = fresh.replay_aof(store.aof_log.read_all())
        assert count == 3
        assert fresh.execute("GET", "s") == b"v"
        assert fresh.execute("HGET", "h", "f") == b"v"
        assert fresh.execute("ZRANGEBYSCORE", "z", "1", "1") == [b"m"]

    def test_replay_preserves_absolute_deadline(self):
        clock = SimClock()
        store, _ = make_store(clock=clock)
        store.execute("SET", "k", "v")
        store.execute("EXPIRE", "k", 100)
        clock.advance(40)
        fresh = KeyValueStore(StoreConfig(appendonly=True), clock=clock)
        fresh.replay_aof(store.aof_log.read_all())
        assert fresh.execute("TTL", "k") == 60

    def test_replay_tolerates_truncated_tail(self):
        store, _ = make_store()
        store.execute("SET", "a", "1")
        data = store.aof_log.read_all() + b"*2\r\n$3\r\nDEL"  # torn record
        fresh = KeyValueStore(StoreConfig(appendonly=True))
        assert fresh.replay_aof(data) == 1
        assert fresh.execute("GET", "a") == b"1"

    def test_replay_strict_mode_rejects_truncation(self):
        store, _ = make_store()
        store.execute("SET", "a", "1")
        data = store.aof_log.read_all() + b"*1\r\n$3\r\nDE"
        fresh = KeyValueStore(StoreConfig(appendonly=True))
        with pytest.raises(PersistenceError):
            fresh.replay_aof(data, tolerate_truncated_tail=False)

    def test_replay_rejects_non_command_payload(self):
        with pytest.raises(PersistenceError):
            replay_commands(b":42\r\n")

    def test_replay_does_not_relog(self):
        store, _ = make_store()
        store.execute("SET", "a", "1")
        data = store.aof_log.read_all()
        fresh_log = AppendLog()
        fresh = KeyValueStore(StoreConfig(appendonly=True),
                              aof_log=fresh_log)
        fresh.replay_aof(data)
        assert fresh_log.total_length == 0

    def test_replay_with_deletes(self):
        store, _ = make_store()
        store.execute("SET", "a", "1")
        store.execute("DEL", "a")
        fresh = KeyValueStore(StoreConfig(appendonly=True))
        fresh.replay_aof(store.aof_log.read_all())
        assert fresh.execute("GET", "a") is None

    def test_a_restarted_store_resumes_the_database_its_log_selected(self):
        """Regression: a writer reopened on an unsplit log assumed its
        stream was in database 0, so after a restart a database-0 write
        logged without ``SELECT 0`` replayed into the database the log
        had selected last."""
        store, _ = make_store()
        session = store.session()
        store.execute("SELECT", 2, session=session)
        store.execute("SET", "two", "x", session=session)
        store.aof_log.flush_and_fsync()
        restarted = store.reopen()
        restarted.execute("SET", "zero", "y")
        replayed = KeyValueStore(StoreConfig(appendonly=True))
        replayed.replay_aof(restarted.aof.read_all())
        assert replayed.execute("KEYS", "*") == [b"zero"]


class TestRewrite:
    def test_rewrite_compacts_history(self):
        store, _ = make_store()
        for i in range(20):
            store.execute("SET", "k", f"v{i}")
        before = store.aof_log.total_length
        store.rewrite_aof()
        assert store.aof_log.total_length < before

    def test_rewrite_preserves_state(self):
        store, _ = make_store()
        store.execute("SET", "s", "v")
        store.execute("HSET", "h", "f", "v")
        store.execute("ZADD", "z", "2.5", "m")
        store.execute("SET", "e", "x", "EX", 500)
        store.rewrite_aof()
        fresh = KeyValueStore(StoreConfig(appendonly=True),
                              clock=store.clock)
        fresh.replay_aof(store.aof_log.read_all())
        assert fresh.execute("GET", "s") == b"v"
        assert fresh.execute("HGET", "h", "f") == b"v"
        assert fresh.execute("ZRANGEBYSCORE", "z", "2.5", "2.5") == [b"m"]
        assert 495 <= fresh.execute("TTL", "e") <= 500

    def test_deleted_key_persists_until_rewrite(self):
        # The section 4.3 finding.
        store, _ = make_store()
        store.execute("SET", "doomed", "pii")
        store.execute("DEL", "doomed")
        assert contains_key(store.aof_log.read_all(), b"doomed")
        store.rewrite_aof()
        assert not contains_key(store.aof_log.read_all(), b"doomed")

    def test_write_after_rewrite_replays_into_its_database(self):
        """Regression: the rewritten stream ends on the last populated
        database's SELECT, but the writer still stood on database 0, so
        the next database-0 write replayed into database 5."""
        store, _ = make_store()
        session = store.session()
        store.execute("SET", "a", "1")
        store.execute("SELECT", 5, session=session)
        store.execute("SET", "b", "2", session=session)
        store.execute("SET", "c", "3")
        store.rewrite_aof()
        store.execute("SET", "d", "4")
        fresh = KeyValueStore(StoreConfig(appendonly=True))
        fresh.replay_aof(store.aof_log.read_all(),
                         tolerate_truncated_tail=False)
        assert sorted(fresh.live_keys(0)) == [b"a", b"c", b"d"]
        assert fresh.live_keys(5) == [b"b"]

    def test_write_after_single_database_rewrite_adds_no_select(self):
        store, _ = make_store()
        store.execute("SET", "a", "1")
        store.rewrite_aof()
        compacted = store.aof_log.read_all()
        store.execute("SET", "d", "4")
        assert store.aof_log.read_all() == \
            compacted + encode_command(b"SET", b"d", b"4")

    def test_periodic_rewrite_interval(self):
        store, clock = make_store(aof_rewrite_interval=3600.0)
        store.execute("SET", "doomed", "pii")
        store.execute("DEL", "doomed")
        clock.advance(3700)
        store.tick()
        assert store.rewrites_completed >= 1
        assert not contains_key(store.aof_log.read_all(), b"doomed")

    def test_growth_triggered_rewrite(self):
        # The log is rewritten on its period or on demand, never because
        # it grew.
        with pytest.raises(TypeError):
            make_store(auto_aof_rewrite_percentage=100)
        store, _ = make_store()
        for i in range(200):
            store.execute("SET", "k", "x" * 100)
        assert store.rewrites_completed == 0

    def test_rewrite_without_aof_raises(self):
        store = KeyValueStore()
        with pytest.raises(PersistenceError):
            store.rewrite_aof()

    def test_bgrewriteaof_command(self):
        # Not a command: backups, cron and callers rewrite through
        # rewrite_aof().
        store, _ = make_store()
        store.execute("SET", "k", "v")
        assert_refused(store, "BGREWRITEAOF")
        assert store.rewrite_aof() == len(store.aof_log.read_all())


class TestTiming:
    def test_always_policy_charges_fsync_per_op(self):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        store = KeyValueStore(
            StoreConfig(appendonly=True, appendfsync="always"),
            clock=clock, aof_log=log)
        before = clock.now()
        store.execute("SET", "k", "v")
        assert clock.now() - before >= INTEL_750_SSD.fsync

    def test_record_cost_charged(self):
        clock = SimClock()
        store = KeyValueStore(
            StoreConfig(appendonly=True, aof_record_base_cost=1e-3),
            clock=clock)
        store.execute("SET", "k", "v")
        assert clock.now() >= 1e-3


def test_a_reopened_engine_s_old_writer_leaves_the_device_timer():
    """The device's timer holds its writers weakly: an engine reopened
    over its everysec log frees the old ``AofWriter`` (and its parts'
    key sets) once nothing else holds it, and the device keeps one timer
    that fires for the new writer."""
    clock = SimClock()
    log = AppendLog(clock=clock)
    engine = KeyValueStore(StoreConfig(appendonly=True,
                                       appendfsync="everysec"),
                           clock=clock, aof_log=log)
    for i in range(100):
        engine.execute("SET", f"k{i}", b"v")
    old = weakref.ref(engine.aof)
    engine = engine.reopen()
    gc.collect()
    assert old() is None
    assert clock.pending_timers() == 1
    engine.execute("SET", "k", b"v")
    fsyncs = log.fsyncs
    clock.advance(1.0)
    assert log.fsyncs == fsyncs + 1 and log.unsynced_bytes == 0
