"""Unit tests for :class:`~repro.tiering.TieredEngine`: demotion,
promote-on-read, merged keyspace views, cross-tier deletion and expiry,
snapshots, and the crash-window shadow rules."""

import pytest

from repro.common.clock import SimClock
from repro.crypto.keystore import KeyStore
from repro.device.append_log import AppendLog
from repro.device.latency import INTEL_750_SSD
from repro.kvstore.replication import ReplicationManager
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieredEngine, TieringConfig


def make_engine(base="redislike", **tiering_kwargs):
    clock = SimClock()
    if base == "redislike":
        inner = KeyValueStore(StoreConfig(appendonly=True),
                              clock=clock, aof_log=AppendLog(clock=clock))
    else:
        inner = RelationalStore(SqlConfig(wal_enabled=True), clock=clock,
                                wal_log=AppendLog(clock=clock))
    tiering_kwargs.setdefault("demote_idle_after", 10)
    tiering_kwargs.setdefault("demote_interval", 1)
    tiering_kwargs.setdefault("segment_max_records", 4)
    return TieredEngine(inner, tiering=TieringConfig(**tiering_kwargs))


def test_idle_scan_demotes_and_read_promotes():
    engine = make_engine()
    engine.execute("SET", "idle", "v")
    engine.execute("SET", "busy", "w")
    engine.tick()                              # seeds the idle clocks
    for _ in range(4):
        engine.clock.advance(5)
        engine.execute("GET", "busy")          # touch keeps it hot
        engine.tick()
    assert engine.demotions == 1
    assert not engine.inner.has_live_key(b"idle")
    assert engine.inner.has_live_key(b"busy")
    assert engine.has_live_key(b"idle")        # merged view still sees it
    assert engine.execute("GET", "idle") == b"v"   # transparent promote
    assert engine.promotions == 1
    assert engine.inner.has_live_key(b"idle")


def test_demote_keys_explicit_and_merged_views():
    engine = make_engine(auto_demote=False)
    for i in range(6):
        engine.execute("SET", f"k{i}", f"v{i}")
    assert engine.demote_keys([b"k0", b"k1", b"k2"]) == 3
    assert engine.execute("DBSIZE") == 6
    assert engine.key_count() == 6
    assert sorted(engine.execute("KEYS", "*")) == \
        [f"k{i}".encode() for i in range(6)]
    cursor, keys = engine.execute("SCAN", "0")
    assert cursor == b"0"
    assert sorted(keys) == [f"k{i}".encode() for i in range(6)]
    records = {r.key: r.value for r in engine.scan_records()}
    assert records[b"k1"] == b"v1"
    assert set(engine.live_keys()) == set(records)


def test_del_reaches_cold_copies():
    engine = make_engine(auto_demote=False)
    events, stream = [], []
    engine.add_deletion_listener(
        lambda db, key, reason, when: events.append((key, reason)))
    engine.add_write_listener(lambda db, argv: stream.append(list(argv)))
    engine.execute("SET", "cold", "1")
    engine.execute("SET", "hot", "2")
    engine.demote_keys([b"cold"])
    assert (b"cold", "demote") in events       # demotion reason visible
    removed = engine.execute("DEL", "cold", "hot", "missing")
    assert removed == 2
    assert (b"cold", "del") in events and (b"hot", "del") in events
    assert [b"DEL", b"cold"] in stream         # replicas drop theirs too
    assert engine.execute("EXISTS", "cold") == 0
    assert engine.execute("DBSIZE") == 0


def test_cold_lazy_and_active_expiry():
    engine = make_engine(auto_demote=False)
    events, stream = [], []
    engine.add_deletion_listener(
        lambda db, key, reason, when: events.append((key, reason)))
    engine.add_write_listener(lambda db, argv: stream.append(list(argv)))
    engine.execute("SET", "lazy", "1", "EX", 100)
    engine.execute("SET", "active", "2", "EX", 100)
    engine.demote_keys([b"lazy", b"active"])
    engine.clock.advance(200)
    before = engine.stats.expired_keys
    assert engine.execute("GET", "lazy") is None
    assert (b"lazy", "lazy-expire") in events
    engine.tick()
    assert (b"active", "active-expire") in events
    assert engine.stats.expired_keys == before + 2
    assert [b"DEL", b"lazy"] in stream and [b"DEL", b"active"] in stream
    assert engine.execute("DBSIZE") == 0


@pytest.mark.parametrize("base", ["redislike", "relational"])
def test_promotion_restores_the_archived_deadline_exactly(base):
    """The wire form of an absolute expiry carries milliseconds; the
    archive holds the deadline itself, and a promoted key gets it back
    to the last bit."""
    engine = make_engine(base, auto_demote=False)
    engine.clock.advance(1.0000002)            # off the millisecond grid
    engine.execute("SET", "k", "v")
    engine.execute("EXPIRE", "k", 1)
    (before,) = [r.expire_at for r in engine.scan_records()]
    assert before != int(before * 1000) / 1000.0
    engine.demote_keys([b"k"])
    assert engine.execute("GET", "k") == b"v"  # promotes
    assert engine.promotions == 1
    assert [r.expire_at for r in engine.inner.scan_records()] == [before]


def test_promotion_leaves_the_cron_cycle_to_the_command_it_serves():
    """EXPIRE on a cold key ends like EXPIRE on a hot one: the due
    active-expiry cycle samples the key *after* its new deadline is set,
    not between the promotion and the command."""
    hot = make_engine(auto_demote=False).inner
    tiered = make_engine(auto_demote=False)
    for engine in (hot, tiered):
        engine.execute("SET", "k", "v")
    tiered.demote_keys([b"k"])
    for engine in (hot, tiered):
        engine.clock.advance(1)
        engine.execute("EXPIRE", "k", 1)
    assert tiered.promotions == 1
    assert tiered.clock.now() == hot.clock.now() > 1.0
    assert tiered.inner.expiry.stats.sampled == hot.expiry.stats.sampled == 1


def test_dbsize_stops_counting_a_cold_copy_at_its_deadline():
    engine = make_engine(auto_demote=False)
    engine.execute("SET", "k", "v", "EX", 1)
    engine.execute("SET", "forever", "v")
    engine.demote_keys([b"k", b"forever"])
    engine.clock.advance(1)                    # now == expire_at
    assert engine.execute("DBSIZE") == 1       # as KEYS / SCAN report
    assert engine.key_count() == 1             # ... and it was reclaimed


def test_overwrite_kills_cold_copy_silently():
    engine = make_engine(auto_demote=False)
    events = []
    engine.execute("SET", "k", "old")
    engine.demote_keys([b"k"])
    engine.add_deletion_listener(
        lambda db, key, reason, when: events.append((key, reason)))
    engine.execute("SET", "k", "new")          # plain SET: no promote
    assert events == []                        # the key never logically died
    assert engine.execute("GET", "k") == b"new"
    assert engine.promotions == 0
    assert engine.execute("DBSIZE") == 1


def test_conditional_set_promotes_first():
    engine = make_engine(auto_demote=False)
    engine.execute("SET", "k", "old")
    engine.demote_keys([b"k"])
    # NX must observe the archived copy and refuse.
    assert engine.execute("SET", "k", "new", "NX") is None
    assert engine.execute("GET", "k") == b"old"


def test_crash_window_shadow_hot_wins():
    engine = make_engine(auto_demote=False)
    engine.execute("SET", "k", "hot-copy")
    # Simulate the crash window: sealed cold copy, hot copy never removed.
    from repro.tiering.segment import ColdInput
    engine.cold.seal([ColdInput(b"k", b"stale-cold", None, None)],
                     sealed_at=0.0)
    assert engine.execute("GET", "k") == b"hot-copy"
    assert engine.execute("DBSIZE") == 1       # not double counted
    assert engine.cold.lookup(b"k") is None    # a shadow, hidden on surface


def test_flushall_reaches_the_archive():
    engine = make_engine(auto_demote=False)
    engine.execute("SET", "a", "1")
    engine.execute("SET", "b", "2")
    engine.demote_keys([b"a"])
    engine.execute("FLUSHALL")
    assert engine.execute("DBSIZE") == 0
    assert engine.cold.segment_count == 0
    assert engine.execute("GET", "a") is None


def test_containers_stay_hot():
    engine = make_engine(auto_demote=False)
    engine.execute("HSET", "row", "f", "v")
    engine.execute("SET", "plain", "v")
    assert engine.demote_keys([b"row", b"plain"]) == 1
    assert engine.inner.has_live_key(b"row")
    assert engine.execute("HGET", "row", "f") == b"v"


def test_full_sync_includes_cold():
    engine = make_engine(auto_demote=False)
    engine.execute("SET", "hot", "1")
    engine.execute("SET", "cold", "2")
    engine.execute("SET", "cold-ttl", "3", "EX", 500)
    engine.demote_keys([b"cold", b"cold-ttl"])
    manager = ReplicationManager(engine, delays=[0.0])
    replica = manager.links[0].replica
    assert manager.full_sync_all() == 3
    assert replica.execute("GET", "hot") == b"1"
    assert replica.execute("GET", "cold") == b"2"
    assert replica.execute("TTL", "cold-ttl") == 500


def test_full_sync_clears_a_stale_archive():
    """A replica's own archived state does not outlive a full sync: the
    replica flushes (its archive included) before it replays the
    primary's image, whose records all come in hot."""
    engine = make_engine(auto_demote=False)
    engine.execute("SET", "fresh", "x")
    manager = ReplicationManager(engine, delays=[0.0])
    manager.close()
    replica = manager.links[0].replica
    replica.execute("SET", "stale", "y")
    replica.demote_keys([b"stale"])            # archive holds stale state
    assert manager.full_sync_all() == 1        # cold archive cleared
    assert replica.cold.segment_count == 0
    assert replica.execute("GET", "fresh") == b"x"
    assert replica.execute("GET", "stale") is None


def test_memory_footprint_shrinks_on_demotion():
    engine = make_engine(auto_demote=False)
    for i in range(20):
        engine.execute("SET", f"k{i:02d}", "x" * 256)
    before = engine.memory_footprint()
    engine.demote_keys([f"k{i:02d}".encode() for i in range(16)])
    after = engine.memory_footprint()
    assert after["hot_keys"] == 4
    assert after["cold_keys"] == 16
    assert after["hot_bytes"] < before["hot_bytes"] / 4
    # The archive's resident index is a fraction of the bytes it freed.
    assert after["cold_resident_bytes"] < before["hot_bytes"] / 4
    stats = engine.cold_stats()
    assert stats["demotions"] == 16
    assert stats["seals"] == 4                 # segment_max_records=4


def test_introspection_does_not_move_the_simulated_clock():
    clock = SimClock()
    inner = KeyValueStore(StoreConfig(appendonly=True), clock=clock,
                          aof_log=AppendLog(clock=clock))
    engine = TieredEngine(
        inner, device=AppendLog(clock=clock, latency=INTEL_750_SSD),
        tiering=TieringConfig(auto_demote=False, segment_max_records=8))
    keys = [b"k%02d" % i for i in range(40)]
    for key in keys:
        engine.execute("SET", key, b"x" * 64)
    assert engine.demote_keys(keys) == 40
    for probe in (engine.memory_footprint, engine.cold_stats,
                  engine.cold.resident_bytes):
        before = clock.now()
        probe()
        assert clock.now() == before, probe.__name__
    assert engine.memory_footprint()["cold_keys"] == 40
    assert engine.cold.device.reads == 0


def test_keys_of_owner_merges_tiers_on_relational():
    engine = make_engine(base="relational", auto_demote=False)
    for i in range(4):
        key = f"u:{i}"
        engine.execute("SET", key, "v")
        engine.annotate_metadata([(key, "alice", ["billing"])])
    engine.demote_keys([b"u:0", b"u:1"])
    assert engine.keys_of_owner("alice") == ["u:0", "u:1", "u:2", "u:3"]
    # Promotion restores the metadata columns the SET would have dropped.
    engine.execute("GET", "u:0")
    assert engine.inner.keys_of_owner("alice") == \
        ["u:0", "u:2", "u:3"]


def test_keys_of_owner_stays_sidecar_on_redislike():
    engine = make_engine(auto_demote=False)
    engine.execute("SET", "k", "v")
    engine.annotate_metadata([("k", "alice", ["billing"])])
    assert engine.keys_of_owner("alice") is None


def test_erase_subject_cold_voids_archive():
    keystore = KeyStore()
    engine = make_engine(auto_demote=False)
    engine.attach_keystore(keystore)
    engine.execute("SET", "a:1", "secret")
    engine.annotate_metadata([("a:1", "alice", [])])
    engine.execute("SET", "b:1", "fine")
    engine.annotate_metadata([("b:1", "bob", [])])
    engine.demote_keys([b"a:1", b"b:1"])
    assert engine.cold_keys_of_subject("alice") == [b"a:1"]
    assert engine.erase_subject_cold("alice", ["a:1"]) == 1
    keystore.erase_key("alice")
    assert engine.execute("GET", "a:1") is None
    assert engine.execute("GET", "b:1") == b"fine"
    assert engine.cold.segments_of_subject("bob") == [0]


def test_non_default_db_bypasses_tiering():
    engine = make_engine(auto_demote=False)
    session = engine.session(1)
    engine.execute("SET", "other-db", "v", session=session)
    engine.execute("SET", "tiered", "v")
    engine.demote_keys([b"tiered", b"other-db"])
    # Only db 0's key demoted; db 1 is untouched hot state.
    assert engine.execute("GET", "other-db", session=session) == b"v"
    assert engine.inner.has_live_key(b"other-db", 1)
