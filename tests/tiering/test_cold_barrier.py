"""Group commit on the cold device: one barrier per tiered command.

Every durable cold tombstone a single :meth:`TieredEngine.execute` or
:meth:`TieredEngine.tick` lays -- DEL victims, hot deletions that kill a
cold shadow, reclaims, active expiries -- is appended unsynced and
covered by one ``flush_and_fsync`` before the call returns.  The crash
contract is unchanged: once the command has returned, power loss on
every device followed by recovery (AOF replay plus cold recovery) never
brings a deleted key back.
"""

import pytest

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.device.faults import FaultPlan
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import right_to_erasure
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.aof import replay_commands
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.tiering import TieredEngine, TieringConfig
from tests.support import ENGINE_FACTORIES


def make_engine():
    clock = SimClock()
    inner = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync="always"),
        clock=clock, aof_log=AppendLog(clock=clock))
    return TieredEngine(inner, tiering=TieringConfig(auto_demote=False,
                                                     segment_max_records=8))


def test_one_multi_key_del_costs_one_cold_fsync():
    engine = make_engine()
    for key in ("hot", "cold1", "cold2", "kept"):
        engine.execute("SET", key, f"v-{key}")
    engine.demote_keys([b"hot", b"cold1", b"cold2", b"kept"])
    # Promoting ``hot`` leaves its cold copy as a shadow, which its
    # deletion tombstones durably.
    assert engine.execute("GET", "hot") == b"v-hot"
    tombstones = engine.cold.tombstones
    fsyncs = engine.cold.device.fsyncs
    assert engine.execute("DEL", "hot", "cold1", "cold2", "absent") == 3
    assert engine.cold.tombstones - tombstones == 3
    assert engine.cold.device.fsyncs - fsyncs == 1
    assert engine.cold.device.unsynced_bytes == 0
    # No tombstone asked for durability: no barrier.
    engine.execute("SET", "fresh", "v")
    assert engine.execute("DEL", "fresh") == 1
    assert engine.cold.device.fsyncs - fsyncs == 1
    FaultPlan(engine.aof_log, engine.cold.device).power_loss()
    recovered = engine.reopen()
    for key in ("hot", "cold1", "cold2", "absent", "fresh"):
        assert recovered.execute("GET", key) is None, key
        assert recovered.cold.slot_of(key.encode()) is None, key
    assert recovered.execute("GET", "kept") == b"v-kept"
    assert recovered.execute("DBSIZE") == 1


def test_one_tick_expiring_cold_keys_costs_one_cold_fsync():
    engine = make_engine()
    for i in range(4):
        engine.execute("SET", f"due{i}", f"v{i}", "PX", 5000)
    engine.execute("SET", "kept", "v")
    engine.demote_keys([b"due0", b"due1", b"due2", b"due3", b"kept"])
    engine.clock.advance(10)
    expired = engine.stats.expired_keys
    fsyncs = engine.cold.device.fsyncs
    engine.tick()
    assert engine.stats.expired_keys - expired == 4
    assert engine.cold.device.fsyncs - fsyncs == 1
    assert engine.cold.device.unsynced_bytes == 0
    FaultPlan(engine.aof_log, engine.cold.device).power_loss()
    recovered = engine.reopen()
    assert recovered.cold.live_keys() == [b"kept"]
    for i in range(4):
        assert recovered.execute("GET", f"due{i}") is None
    assert recovered.execute("GET", "kept") == b"v"


def test_a_demotion_batch_logs_one_del_naming_its_keys():
    engine = make_engine()
    keys = [b"k0", b"k1", b"k2", b"k3", b"k4"]
    for key in keys:
        engine.execute("SET", key, b"v-" + key)
    records = engine.aof.records_written
    tail = len(engine.aof.read_all())
    assert engine.demote_keys(keys) == 5
    assert engine.aof.records_written - records == 1
    assert replay_commands(engine.aof.read_all()[tail:]) == [[b"DEL", *keys]]
    FaultPlan(engine.aof_log, engine.cold.device).power_loss()
    recovered = engine.reopen()
    assert not recovered.inner.live_keys()
    for key in keys:
        assert recovered.execute("GET", key) == b"v-" + key


def test_an_erasure_costs_one_cold_fsync_for_its_del_and_marker():
    """Art. 17 on a tiered store: the DEL's durable tombstones and the
    subject marker share one cold barrier, and power loss right after
    the receipt brings no erased key back."""
    engine = make_engine()
    cold_device = engine.cold.device
    store = GDPRStore(kv=engine, config=GDPRConfig(compact_on_erasure=True))
    purposes = frozenset({"billing"})
    for i in range(4):
        store.put(f"alice:{i}", b"a" * 16,
                  GDPRMetadata(owner="alice", purposes=purposes))
    store.put("bob:0", b"b" * 16, GDPRMetadata(owner="bob",
                                               purposes=purposes))
    engine.demote_keys([b"alice:1", b"alice:2", b"alice:3", b"bob:0"])
    fsyncs = cold_device.fsyncs
    receipt = right_to_erasure(store, "alice")
    assert receipt.cold_segments_voided == 1
    assert not receipt.residual_in_aof
    assert cold_device.fsyncs - fsyncs == 1
    assert cold_device.unsynced_bytes == 0
    FaultPlan(engine.aof_log, cold_device).power_loss()
    recovered = engine.reopen()
    for i in range(4):
        assert recovered.execute("GET", f"alice:{i}") is None
        assert recovered.cold.slot_of(f"alice:{i}".encode()) is None
    assert recovered.cold.slot_of(b"bob:0") is not None


@pytest.mark.parametrize("variant", ["tiered-redislike", "tiered-relational"])
def test_a_cold_marker_only_for_an_erasure_that_reaches_segments(variant):
    """An erasure whose subject no sealed segment holds writes nothing
    to the cold device and pays no cold barrier (it used to write the
    subject marker and fsync it); one that reaches a segment writes the
    marker, and power loss on every device right after the receipt
    brings none of the subject's keys back."""
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](SimClock()),
                      config=GDPRConfig(compact_on_erasure=True))
    engine, cold = store.kv, store.kv.cold.device
    purposes = frozenset({"billing"})
    for owner in ("alice", "bob", "carol"):
        for i in range(3):
            store.put(f"{owner}:{i}", owner.encode() * 8,
                      GDPRMetadata(owner=owner, purposes=purposes))
    engine.demote_keys([b"bob:0", b"bob:1", b"carol:0"])
    assert engine.cold.segment_count == 1
    written, fsyncs = cold.total_length, cold.fsyncs
    receipt = right_to_erasure(store, "alice")
    assert receipt.cold_segments_voided == 0 and not receipt.residual_in_aof
    assert (cold.total_length, cold.fsyncs) == (written, fsyncs)
    assert "alice" not in engine.cold.erased_subjects
    receipt = right_to_erasure(store, "bob")
    assert receipt.cold_segments_voided == 1 and not receipt.residual_in_aof
    assert cold.fsyncs == fsyncs + 1 and cold.unsynced_bytes == 0
    FaultPlan(engine.aof_log, cold).power_loss()
    recovered = engine.reopen()
    assert "bob" in recovered.cold.erased_subjects
    for owner in ("alice", "bob"):
        for i in range(3):
            key = f"{owner}:{i}"
            assert recovered.execute("GET", key) is None, key
            assert recovered.cold.slot_of(key.encode()) is None, key
    assert recovered.cold.slot_of(b"carol:0") is not None
    assert recovered.execute("GET", "carol:1") is not None
