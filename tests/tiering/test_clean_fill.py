"""A promotion is a clean cache fill: what it writes (nothing), what a
later write logs first, what a clean re-demotion seals (nothing), and
the shadows the fill leaves in the archive."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import StoreError
from repro.common.resp import RespError
from repro.device.append_log import AppendLog
from repro.kvstore.aof import replay_commands
from repro.kvstore.commands import deadline_ms
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieredEngine, TieringConfig

BASES = ["redislike", "relational"]


def make_engine(base):
    clock = SimClock()
    if base == "redislike":
        inner = KeyValueStore(StoreConfig(appendonly=True),
                              clock=clock, aof_log=AppendLog(clock=clock))
    else:
        inner = RelationalStore(SqlConfig(), clock=clock,
                                wal_log=AppendLog(clock=clock))
    return TieredEngine(inner, tiering=TieringConfig(auto_demote=False))


def _demoted(base, *keys):
    engine = make_engine(base)
    for key in keys:
        engine.execute("SET", key, b"v-" + key.encode())
    engine.demote_keys([key.encode() for key in keys])
    return engine


def _logged_since(engine, tail):
    return replay_commands(engine.aof.read_all()[tail:])


@pytest.mark.parametrize("base", BASES)
def test_a_promotion_writes_nothing_and_a_clean_redemotion_seals_nothing(
        base):
    engine = _demoted(base, "k")
    if base == "relational":
        engine.annotate_metadata([("k", "alice", ["billing"])])
    records = engine.aof.records_written
    hot, cold = engine.aof_log.total_length, engine.cold.device.total_length
    seals, tombstones = engine.cold.seals, engine.cold.tombstones
    writes = []
    engine.add_write_listener(lambda db, argv: writes.append(argv))
    assert engine.execute("GET", "k") == b"v-k"
    assert engine.promotions == 1
    assert engine.aof.records_written == records        # 0 hot-log records
    assert engine.aof_log.total_length == hot
    assert engine.cold.device.total_length == cold      # 0 cold frames
    assert engine.cold.tombstones == tombstones and writes == []
    if base == "relational":                # owner columns restored
        assert engine.inner.keys_of_owner("alice") == ["k"]
    assert engine.demote_keys([b"k"]) == 1
    assert engine.cold.seals == seals                   # 0 segments sealed
    assert engine.cold.device.total_length == cold
    assert engine.aof.records_written == records + 1    # the demotion DEL
    assert writes == []
    assert engine.execute("GET", "k") == b"v-k"         # the same copy
    assert engine.promotions == 2


@pytest.mark.parametrize("base", BASES)
def test_a_write_to_a_clean_key_logs_its_base_first(base):
    engine = _demoted(base, "k", "s")
    engine.execute("GET", "k")
    engine.execute("GET", "s")
    tail = len(engine.aof.read_all())
    assert engine.execute("EXPIRE", "k", 100) == 1
    deadline = b"%d" % deadline_ms(engine.clock.now() + 100)
    assert _logged_since(engine, tail) == [
        [b"SET", b"k", b"v-k"], [b"PEXPIREAT", b"k", deadline]]
    # Dirty now: the next write logs itself alone.
    tail = len(engine.aof.read_all())
    assert engine.execute("PERSIST", "k") == 1
    assert _logged_since(engine, tail) == [[b"PERSIST", b"k"]]
    # A plain SET is a whole base of its own.
    tail = len(engine.aof.read_all())
    engine.execute("SET", "s", "new")
    assert _logged_since(engine, tail) == [[b"SET", b"s", b"new"]]
    # A dirty key's shadow is stale: its re-demotion seals afresh.
    seals = engine.cold.seals
    assert engine.demote_keys([b"k", b"s"]) == 2
    assert engine.cold.seals == seals + 1
    assert engine.execute("GET", "s") == b"new"


@pytest.mark.parametrize("argv", [("SET", "k", "v2", "XX"),
                                  ("LPUSH", "k", "x"), ("INCR", "k"),
                                  ("HSET", "k", "f", "x")],
                         ids=["set-xx", "lpush", "incr", "hset"])
@pytest.mark.parametrize("base", BASES)
def test_a_refused_write_to_a_clean_key_logs_nothing(base, argv):
    """A write the hot engine refuses (an unknown command, a syntax
    error, WRONGTYPE, not an integer) appends no record, not even the
    key's base, and leaves the key clean; one it accepts (``SET .. XX``
    on the Redis-like engine) logs the base, then itself."""
    engine = _demoted(base, "k")
    engine.execute("GET", "k")
    records, seals = engine.aof.records_written, engine.cold.seals
    try:
        engine.execute(*argv)
    except (StoreError, RespError):
        engine.execute("SET", "other", "x")         # logs itself alone
        assert engine.aof.records_written == records + 1
        assert engine.demote_keys([b"k"]) == 1
        assert engine.cold.seals == seals           # still clean
        value = b"v-k"
    else:
        assert engine.aof.records_written == records + 2
        value = b"v2"
    assert engine.reopen().execute("GET", "k") == value


def test_an_append_to_a_clean_key_replays_over_its_base():
    engine = _demoted("redislike", "k")
    engine.execute("GET", "k")
    tail = len(engine.aof.read_all())
    assert engine.execute("APPEND", "k", "+") == 4
    assert _logged_since(engine, tail) == [
        [b"SET", b"k", b"v-k"], [b"APPEND", b"k", b"+"]]


def test_a_relational_base_carries_the_owner_columns():
    engine = _demoted("relational", "k")
    engine.annotate_metadata([("k", "alice", ["billing"])])
    engine.execute("GET", "k")
    tail = len(engine.aof.read_all())
    engine.annotate_metadata([("k", "bob", ["billing"])])
    assert _logged_since(engine, tail) == [
        [b"SET", b"k", b"v-k"], [b"GDPRMETA", b"k", b"alice", b"billing"],
        [b"GDPRMETA", b"k", b"bob", b"billing"]]


def test_a_whole_log_rewrite_ends_every_clean_mark():
    engine = _demoted("redislike", "k")
    engine.execute("GET", "k")
    engine.rewrite_aof()
    tail = len(engine.aof.read_all())
    assert engine.execute("EXPIRE", "k", 100) == 1
    assert [argv[0] for argv in _logged_since(engine, tail)] == \
        [b"PEXPIREAT"]


@pytest.mark.parametrize("base", BASES)
def test_a_shadow_is_no_cold_key(base):
    """A promoted key's cold copy stays as its shadow: counted by
    ``cold_stats``, answered by no cold-only view, and its deadline --
    no longer the key's -- emits no deletion event and no write-stream
    DEL."""
    engine = _demoted(base, "c")
    engine.execute("SET", "k", "v", "PXAT",
                   int((engine.clock.now() + 10) * 1000))
    engine.demote_keys([b"k"])
    assert engine.execute("PERSIST", "k") == 1      # promotes k first
    assert engine.cold.live_keys() == [b"c"]
    assert engine.cold.live_count() == 1
    assert engine.memory_footprint()["cold_keys"] == 1
    assert engine.cold_stats()["shadows"] == 1
    assert engine.key_count() == 2 and engine.execute("DBSIZE") == 2
    assert engine.execute("KEYS", "*") == [b"k", b"c"]
    events, writes = [], []
    engine.add_deletion_listener(
        lambda db, key, reason, when: events.append((key, reason)))
    engine.add_write_listener(lambda db, argv: writes.append(argv))
    engine.clock.advance(20)
    engine.tick()
    assert events == [] and writes == []
    assert engine.execute("GET", "k") == b"v"
    dead = engine.cold_stats()["dead_bytes"]
    assert engine.execute("DEL", "k") == 1          # kills the shadow
    stats = engine.cold_stats()
    assert stats["shadows"] == 0 and stats["dead_bytes"] > dead
    assert events == [(b"k", "del")]


@pytest.mark.parametrize("base", BASES)
def test_a_record_with_under_a_millisecond_left_is_filled_live(base):
    """The fill's wire deadline is rounded up to the millisecond: one
    rounded down to the past would delete a record still live."""
    engine = _demoted(base)
    engine.clock.advance(1.0)
    engine.execute("SET", "k", "v", "PXAT", 1001)
    engine.demote_keys([b"k"])
    engine.clock.advance(0.0004)
    events = []
    engine.add_deletion_listener(
        lambda db, key, reason, when: events.append((key, reason)))
    assert engine.execute("GET", "k") == b"v"
    assert [r.expire_at for r in engine.inner.scan_records()] == [1.001]
    assert events == []


@pytest.mark.parametrize("base", BASES)
def test_a_promotion_streams_only_the_client_s_command_to_monitor(base):
    """A fill is no client's command: MONITOR streams the ``GET`` that
    promotes and nothing else, and charges one record's formatting."""
    engine = _demoted(base, "k")
    if base == "relational":
        engine.annotate_metadata([("k", "alice", ["billing"])])
    streamed = []
    engine.monitor.attach(streamed.append)
    assert engine.execute("GET", "k") == b"v-k"
    assert engine.promotions == 1
    assert [line.split(b"] ", 1)[1] for line in streamed] \
        == [b'"GET" "k"\n']
    assert engine.monitor.records_streamed == 1
