"""Group commit on the cold device: one barrier per tiered command.

Every durable cold tombstone a single :meth:`TieredEngine.execute` or
:meth:`TieredEngine.tick` lays -- DEL victims, hot deletions that kill a
cold shadow, reclaims, active expiries -- is appended unsynced and
covered by one ``flush_and_fsync`` before the call returns.  The crash
contract is unchanged: once the command has returned, power loss on
every device followed by recovery (AOF replay plus cold recovery) never
brings a deleted key back.
"""

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.tiering import TieredEngine, TieringConfig


def make_engine(clock=None, cold_device=None):
    clock = clock if clock is not None else SimClock()
    inner = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync="always"),
        clock=clock, aof_log=AppendLog(clock=clock))
    return TieredEngine(inner, device=cold_device,
                        tiering=TieringConfig(auto_demote=False,
                                              segment_max_records=8))


def crash_and_recover(engine):
    """Power loss on every device, then a fresh engine replaying the
    surviving AOF over the surviving cold device bytes."""
    engine.aof_log.crash(power_loss=True)
    engine.cold.device.crash(power_loss=True)
    recovered = make_engine(clock=engine.clock,
                            cold_device=engine.cold.device)
    recovered.replay_aof(engine.aof_log.read_all())
    return recovered


def test_one_multi_key_del_costs_one_cold_fsync():
    engine = make_engine()
    for key in ("hot", "cold1", "cold2", "kept"):
        engine.execute("SET", key, f"v-{key}")
    engine.demote_keys([b"hot", b"cold1", b"cold2", b"kept"])
    # Promoting ``hot`` leaves a non-durable tombstone behind, so its
    # deletion must re-issue one durably.
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
    recovered = crash_and_recover(engine)
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
    recovered = crash_and_recover(engine)
    assert recovered.cold.live_keys() == [b"kept"]
    for i in range(4):
        assert recovered.execute("GET", f"due{i}") is None
    assert recovered.execute("GET", "kept") == b"v"
