"""Integration: crash and recovery across the persistence stack."""

import pytest

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.device.faults import FaultPlan
from repro.kvstore import KeyValueStore, StoreConfig


def make_store(appendfsync="always", **kwargs):
    clock = SimClock()
    log = AppendLog(clock=clock)
    store = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync=appendfsync, **kwargs),
        clock=clock, aof_log=log)
    return store, log, clock


class TestAofCrashRecovery:
    def test_recovery_after_power_loss(self):
        store, log, _ = make_store()
        for i in range(50):
            store.execute("SET", f"k{i}", f"v{i}")
        FaultPlan(log).power_loss()
        recovered = KeyValueStore(StoreConfig(appendonly=True))
        recovered.replay_aof(log.read_all())
        for i in range(50):
            assert recovered.execute("GET", f"k{i}") == f"v{i}".encode()

    def test_everysec_loses_at_most_window(self):
        store, log, clock = make_store(appendfsync="everysec")
        store.execute("SET", "early", "v")
        clock.advance(1.5)
        store.tick()  # fsync covers "early"
        store.execute("SET", "late", "v")
        FaultPlan(log).power_loss()
        recovered = KeyValueStore(StoreConfig(appendonly=True))
        recovered.replay_aof(log.read_all())
        assert recovered.execute("GET", "early") == b"v"
        assert recovered.execute("GET", "late") is None

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

    def test_replay_equivalence_after_rewrite(self):
        store, log, _ = make_store()
        for i in range(30):
            store.execute("SET", f"k{i % 5}", f"v{i}")
        store.execute("DEL", "k0")
        store.rewrite_aof()
        recovered = KeyValueStore(StoreConfig(appendonly=True))
        recovered.replay_aof(log.read_all())
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
        recovered = KeyValueStore(StoreConfig(appendonly=True))
        recovered.replay_aof(log.read_all())
        assert recovered.execute("GET", "a") == b"1"
        assert recovered.execute("GET", "c") == b"3"


class TestSnapshotPlusAof:
    def test_snapshot_then_aof_tail(self):
        # The classic recovery flow: restore the snapshot, replay the AOF
        # written after it.
        store, log, clock = make_store()
        store.execute("SET", "base", "v1")
        snapshot = store.save_snapshot()
        tail_start = log.total_length
        store.execute("SET", "base", "v2")
        store.execute("SET", "extra", "x")

        recovered = KeyValueStore(StoreConfig(appendonly=True))
        recovered.load_snapshot(snapshot)
        recovered.replay_aof(log.read_all()[tail_start:])
        assert recovered.execute("GET", "base") == b"v2"
        assert recovered.execute("GET", "extra") == b"x"

    def test_expired_key_not_resurrected_by_replay(self):
        store, log, clock = make_store(expiry_strategy="fullscan")
        store.execute("SET", "k", "v", "EX", 10)
        clock.advance(20)
        recovered = KeyValueStore(StoreConfig(appendonly=True),
                                  clock=clock)
        recovered.replay_aof(log.read_all())
        # PEXPIREAT lands in the past -> deleted during replay.
        assert recovered.execute("GET", "k") is None
