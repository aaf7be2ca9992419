"""Engine-conformance suite: every backend, one contract.

Every test runs four times -- over the Redis-like hash-table store, the
relational engine, and a **tiered** variant of each (the hot engine
behind :class:`~repro.tiering.TieredEngine`, with demotion aggressive
enough that records routinely cross tiers mid-test) -- asserting the
shared :class:`~repro.engine.base.StorageEngine` semantics: command
behaviour and typed refusals, what reaches the log, expiry (lazy and
active, with translated DEL propagation), deletion reasons,
DUMP/RESTORE, snapshot and durable-log round trips, keyspace views,
replication spawning, and GDPR erasure through the facade.  The tiered variants passing the *same* assertions is the
transparency contract: tiering must be observationally invisible.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    ArityError, CorruptionError, StoreError, UnknownCommandError)
from repro.common.hashing import crc32_of
from repro.common.resp import RespError
from repro.crypto.keystore import KeyStore
from repro.engine.base import ENGINES, StorageEngine, register_engine
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore import REGISTRY
from repro.kvstore.aof import contains_key
from repro.kvstore.replication import ReplicationManager
from repro.kvstore.store import KeyValueStore
from repro.sqlstore import RelationalStore
from repro.tiering import TieredEngine
from tests.support import ENGINE_FACTORIES as FACTORIES


@pytest.fixture(params=sorted(FACTORIES))
def engine(request):
    return FACTORIES[request.param](SimClock())


def test_both_engines_registered():
    assert ENGINES["redislike"] is KeyValueStore
    assert ENGINES["relational"] is RelationalStore
    for cls in (KeyValueStore, RelationalStore):
        assert issubclass(cls, StorageEngine)


def test_set_get_del_exists(engine):
    assert engine.execute("GET", "k") is None
    engine.execute("SET", "k", "v1")
    assert engine.execute("GET", "k") == b"v1"
    engine.execute("SET", "k", "v2")          # overwrite
    assert engine.execute("GET", "k") == b"v2"
    assert engine.execute("EXISTS", "k") == 1
    assert engine.execute("DEL", "k") == 1
    assert engine.execute("GET", "k") is None
    assert engine.execute("DEL", "k") == 0


def test_hash_rows(engine):
    engine.execute("HSET", "row", "f1", "a", "f2", "b")
    assert engine.execute("HGET", "row", "f1") == b"a"
    assert engine.execute("HMGET", "row", "f2", "nope") == [b"b", None]
    flat = engine.execute("HGETALL", "row")
    assert dict(zip(flat[::2], flat[1::2])) == {b"f1": b"a", b"f2": b"b"}
    # Type discipline holds on both engines (typed store errors, the
    # servers map them to WRONGTYPE on the wire).
    with pytest.raises(StoreError):
        engine.execute("GET", "row")
    engine.execute("SET", "s", "x")
    with pytest.raises(StoreError):
        engine.execute("HGETALL", "s")



def test_hmset_replies_ok(engine):
    assert engine.execute("HMSET", "h", "a", "1", "b", "2") == "OK"
    assert engine.execute("HMSET", "h", "b", "3", "c", "4") == "OK"
    assert engine.execute("HLEN", "h") == 3


def test_control_traffic_never_reaches_the_log(engine):
    engine.aof.log_reads = True
    before = engine.aof_log.total_length
    assert engine.execute("PING") == "PONG"
    assert engine.aof_log.total_length == before
    engine.execute("GET", "k")                # a read does reach it
    assert engine.aof_log.total_length > before


def test_unknown_command_is_one_typed_error(engine):
    """A name nobody declared, and every name of the command table this
    engine has no handler for, is refused the same way on every engine,
    in the caller's spelling."""
    hot = engine.inner if isinstance(engine, TieredEngine) else engine
    lacking = sorted(set(REGISTRY) - set(hot._HANDLERS))
    for name in [b"nosuchcmd"] + lacking:
        with pytest.raises(UnknownCommandError) as refused:
            engine.execute(name, "k")
        assert str(refused.value) == \
            f"ERR unknown command '{name.decode()}'"
    if engine.database_count == 1:
        assert b"SELECT" in lacking


def test_wrong_arity_is_one_typed_error(engine):
    for argv in (("GET",), ("Set", "k"), ("expire", "k"),
                 ("HGET", "h", "f", "x"), ("DEL",)):
        with pytest.raises(ArityError) as refused:
            engine.execute(*argv)
        assert str(refused.value) == ("ERR wrong number of arguments for "
                                      f"'{argv[0].lower()}' command")

def test_lazy_expiry_and_deletion_reason(engine):
    events = []
    engine.add_deletion_listener(
        lambda db, key, reason, when: events.append((key, reason)))
    engine.execute("SET", "k", "v")
    engine.execute("EXPIRE", "k", 5)
    assert engine.execute("TTL", "k") == 5
    engine.clock.advance(6)
    assert engine.execute("GET", "k") is None     # lazy reclamation
    assert (b"k", "lazy-expire") in events
    assert engine.stats.expired_keys == 1


def test_active_expiry_reason(engine):
    events = []
    engine.add_deletion_listener(
        lambda db, key, reason, when: events.append((key, reason)))
    engine.execute("SET", "k", "v")
    engine.execute("PEXPIRE", "k", 1000)
    engine.clock.advance(10)
    engine.tick()                                 # cron / vacuum cycle
    assert (b"k", "active-expire") in events
    assert not engine.has_live_key(b"k")


def test_expiry_propagates_as_del(engine):
    stream = []
    engine.add_write_listener(lambda db, argv: stream.append(argv))
    engine.execute("SET", "k", "v")
    engine.execute("EXPIRE", "k", 1)
    # Relative expiries travel as absolute PEXPIREAT.
    assert any(argv[0] == b"PEXPIREAT" for argv in stream)
    engine.clock.advance(2)
    engine.tick()
    assert [b"DEL", b"k"] in stream


def test_expire_in_the_past_deletes(engine):
    events = []
    engine.add_deletion_listener(
        lambda db, key, reason, when: events.append((key, reason)))
    engine.clock.advance(100)
    engine.execute("SET", "k", "v")
    assert engine.execute("EXPIREAT", "k", 1) == 1
    assert engine.execute("EXISTS", "k") == 0
    assert (b"k", "del") in events


def test_set_with_absolute_deadline_reads_back(engine):
    engine.clock.advance(100)
    engine.execute("SET", "k", "v", "PXAT", 130_000)
    assert engine.execute("PTTL", "k") == 30_000
    engine.execute("SET", "s", "v", "EXAT", 140)
    assert engine.execute("TTL", "s") == 40
    engine.execute("SET", "k", "v2")          # plain SET drops the deadline
    assert engine.execute("PTTL", "k") == -1


def test_set_with_a_past_deadline_deletes(engine):
    events = []
    engine.add_deletion_listener(
        lambda db, key, reason, when: events.append((key, reason)))
    engine.clock.advance(100)
    engine.execute("SET", "k", "v")
    engine.execute("SET", "k", "v2", "PXAT", 1000)
    assert engine.execute("EXISTS", "k") == 0
    assert (b"k", "del") in events
    # Logged as the delete it was: a replay at the same instant agrees.
    replica = engine.spawn_replica()
    replica.replay_aof(engine.aof_log.read_all())
    assert replica.execute("EXISTS", "k") == 0


def test_set_deadline_survives_rewrite_and_replay(engine):
    engine.clock.advance(100.0004567)
    engine.execute("SET", "k", "v", "PXAT", 130_123)
    engine.rewrite_aof()
    replica = engine.spawn_replica()
    replica.replay_aof(engine.aof_log.read_all(),
                       tolerate_truncated_tail=False)
    assert [record.expire_at for record in replica.scan_records(0)] \
        == [130.123]
    assert replica.execute("PTTL", "k") == engine.execute("PTTL", "k")


@pytest.mark.parametrize("variant", ["relational", "tiered-relational"])
def test_relational_set_refuses_conditional_writes(variant):
    engine = FACTORIES[variant](SimClock())
    for option in ("NX", "XX"):
        with pytest.raises(RespError) as refused:
            engine.execute("SET", "k", "v", option)
        assert str(refused.value) == "ERR syntax error"
    assert engine.execute("EXISTS", "k") == 0


def test_persist_clears_expiry(engine):
    engine.execute("SET", "k", "v")
    engine.execute("EXPIRE", "k", 5)
    assert engine.execute("PERSIST", "k") == 1
    assert engine.execute("TTL", "k") == -1
    engine.clock.advance(10)
    assert engine.execute("GET", "k") == b"v"


def test_dump_restore_round_trip(engine):
    engine.execute("SET", "k", "payload")
    blob = engine.execute("DUMP", "k")
    assert blob is not None
    assert engine.execute("DUMP", "missing") is None
    engine.execute("RESTORE", "k2", 0, blob)
    assert engine.execute("GET", "k2") == b"payload"
    with pytest.raises(RespError, match="BUSYKEY"):
        engine.execute("RESTORE", "k2", 0, blob)
    engine.execute("RESTORE", "k2", 1000, blob, "REPLACE")
    assert engine.execute("PTTL", "k2") > 0
    engine.clock.advance(2)
    assert engine.execute("GET", "k2") is None


def test_pexpiretime_reports_the_absolute_deadline(engine):
    assert engine.execute("PEXPIRETIME", "missing") == -2
    engine.execute("SET", "k", "v")
    assert engine.execute("PEXPIRETIME", "k") == -1
    engine.clock.advance(100.0004567)
    engine.execute("SET", "k", "v", "PXAT", 130_123)
    assert engine.execute("PEXPIRETIME", "k") == 130_123
    engine.execute("PEXPIRE", "k", 1500)       # 101.5004567 s
    assert engine.execute("PEXPIRETIME", "k") == 101_500


def test_restore_absttl_takes_an_absolute_deadline(engine):
    engine.execute("SET", "k", "payload")
    blob = engine.execute("DUMP", "k")
    engine.clock.advance(100)
    engine.execute("RESTORE", "k2", 130_123, blob, "ABSTTL")
    assert engine.execute("PEXPIRETIME", "k2") == 130_123
    assert engine.execute("PTTL", "k2") == 30_123
    engine.execute("RESTORE", "k3", 0, blob, "ABSTTL")      # 0: no expiry
    assert engine.execute("PEXPIRETIME", "k3") == -1
    # A deadline already past leaves no key -- a replaced one included,
    # and the log says so: a replay at the same instant agrees.
    engine.execute("RESTORE", "k4", 99_999, blob, "ABSTTL")
    assert engine.execute("EXISTS", "k4") == 0
    engine.execute("RESTORE", "k2", 50_000, blob, "REPLACE", "ABSTTL")
    assert engine.execute("EXISTS", "k2") == 0
    replica = engine.spawn_replica()
    replica.replay_aof(engine.aof_log.read_all())
    assert replica.execute("EXISTS", "k2", "k4") == 0
    assert replica.execute("GET", "k3") == b"payload"
    with pytest.raises(RespError, match="syntax"):
        engine.execute("RESTORE", "k5", 0, blob, "ABS")


def test_dump_restore_wide_rows(engine):
    engine.execute("HSET", "row", "f1", "a", "f2", "b")
    blob = engine.execute("DUMP", "row")
    engine.execute("RESTORE", "copy", 0, blob)
    assert engine.execute("HGET", "copy", "f2") == b"b"


def test_snapshot_round_trip(engine):
    engine.execute("SET", "a", "1")
    engine.execute("HSET", "b", "f", "2")
    engine.execute("SET", "c", "3")
    engine.execute("EXPIRE", "c", 50)
    snapshot = engine.save_snapshot()
    replica = engine.spawn_replica()
    assert replica.load_snapshot(snapshot) == 3
    assert replica.execute("GET", "a") == b"1"
    assert replica.execute("HGET", "b", "f") == b"2"
    assert replica.execute("TTL", "c") == 50


def _owned_keyspace(engine):
    """Four records of ``alice`` (deadlines off the millisecond grid)
    and a hash row; on the tiered variants two records are archived."""
    engine.clock.advance(0.0004567)
    for number in range(4):
        key = f"k{number}"
        engine.execute("SET", key, f"value-{number}")
        engine.annotate_metadata([(key, "alice", ["billing", "ads"])])
        engine.execute("EXPIRE", key, 100 + number)
    engine.execute("HSET", "row", "f", "x")
    if isinstance(engine, TieredEngine):
        assert engine.demote_keys([b"k0", b"k1"]) == 2


def _records(engine):
    return sorted((r.key, r.value, r.expire_at)
                  for r in engine.scan_records())


def test_snapshot_keeps_values_deadlines_and_owner_columns(engine):
    """Regression: a tiered snapshot restored its archived records
    through PEXPIREAT milliseconds and without their owner columns, so
    a tiered-relational replica's ``keys_of_owner`` lost them."""
    _owned_keyspace(engine)
    replica = engine.spawn_replica()
    assert replica.load_snapshot(engine.save_snapshot()) == 5
    assert _records(replica) == _records(engine)
    assert replica.keys_of_owner("alice") == engine.keys_of_owner("alice")
    if engine.supports_metadata_columns:
        assert replica.keys_of_owner("alice") == ["k0", "k1", "k2", "k3"]
    if isinstance(replica, TieredEngine):
        # Archived again after the load, a record keeps its subject.
        assert replica.demote_keys([b"k0"]) == 1
        assert replica.keys_of_owner("alice") == \
            engine.keys_of_owner("alice")


def test_damaged_snapshot_rejected_and_keyspace_untouched(engine):
    """Regression: a tiered snapshot had no checksum over its archived
    records, so a flipped byte in one loaded silently."""
    _owned_keyspace(engine)
    snapshot = engine.save_snapshot()
    flipped = bytearray(snapshot)
    flipped[-5] ^= 0x01                  # the last record's value
    target = engine.spawn_replica()
    target.execute("SET", "keep", "x")
    for bad in [snapshot[:n] for n in range(len(snapshot))] \
            + [snapshot + b"\x00", bytes(flipped)]:
        with pytest.raises(CorruptionError):
            target.load_snapshot(bad)
    assert target.execute("KEYS", "*") == [b"keep"]
    assert target.load_snapshot(snapshot) == 5


def _recount(snapshot, records):
    """A one-database ``snapshot`` with its record count replaced by
    ``records`` and the CRC recomputed, so only the parse can tell it is
    damaged."""
    start = len(b"REPRODB1") + 8         # magic, database count, index
    body = (snapshot[:start] + records.to_bytes(8, "big")
            + snapshot[start + 8:-4])
    return body + crc32_of(body).to_bytes(4, "big")


@pytest.mark.parametrize("records", [3, 1], ids=["overruns-count",
                                                 "trailing-records"])
def test_recounted_snapshot_rejected(engine, records):
    """An image of a, b that declares 3 records must not load half of
    it; one that declares 1 must not drop ``b`` silently."""
    engine.execute("SET", "a", "1")
    engine.execute("SET", "b", "2")
    damaged = _recount(engine.save_snapshot(), records)
    target = engine.spawn_replica()
    target.execute("SET", "keep", "x")
    with pytest.raises(CorruptionError):
        target.load_snapshot(damaged)
    assert target.execute("KEYS", "*") == [b"keep"]
    assert target.load_snapshot(_recount(damaged, 2)) == 2
    assert sorted(target.execute("KEYS", "*")) == [b"a", b"b"]


def test_durable_log_replay_round_trip(engine):
    engine.execute("SET", "a", "1")
    engine.execute("HSET", "b", "f", "2")
    engine.execute("DEL", "a")
    engine.execute("SET", "c", "3")
    replica = engine.spawn_replica()
    # Replicas have no log of their own; replay the primary's bytes.
    replayed = replica.replay_aof(engine.aof_log.read_all())
    assert replayed >= 4
    assert replica.execute("GET", "a") is None
    assert replica.execute("HGET", "b", "f") == b"2"
    assert replica.execute("GET", "c") == b"3"


def test_log_compaction_removes_deleted_keys(engine):
    engine.execute("SET", "keep", "x")
    engine.execute("SET", "gone", "y")
    engine.execute("DEL", "gone")
    assert contains_key(engine.aof_log.read_all(), b"gone")
    engine.rewrite_aof()
    data = engine.aof_log.read_all()
    assert not contains_key(data, b"gone")
    assert contains_key(data, b"keep")


def _logged_records(engine):
    return sorted((index, key, value, expire_at, metadata)
                  for index, records in engine.snapshot_records().items()
                  for key, value, expire_at, metadata in records)


def test_log_compaction_replays_to_the_same_records(engine):
    """The one compaction contract: ``rewrite_aof`` then ``replay_aof``
    into a fresh same-engine store gives back every key, value, deadline
    (to the millisecond) and metadata column.  A tiered engine compacts
    its hot log, which never holds the archived records."""
    _owned_keyspace(engine)
    engine.execute("SET", "gone", "x")
    engine.execute("DEL", "gone")
    engine.rewrite_aof()
    replica = engine.spawn_replica()
    replica.replay_aof(engine.aof_log.read_all(),
                       tolerate_truncated_tail=False)
    logged = engine.inner if isinstance(engine, TieredEngine) else engine
    expected = [(index, key, value,
                 None if expire_at is None else int(expire_at * 1000) / 1000,
                 metadata)
                for index, key, value, expire_at, metadata
                in _logged_records(logged)]
    assert len(expected) == (3 if isinstance(engine, TieredEngine) else 5)
    assert _logged_records(replica) == expected


def test_keyspace_views(engine):
    engine.execute("SET", "a", "1")
    engine.execute("SET", "b", "2")
    engine.execute("EXPIRE", "b", 1)
    assert engine.execute("DBSIZE") == engine.key_count() == 2
    engine.clock.advance(5)
    assert engine.has_live_key(b"a")
    assert not engine.has_live_key(b"b")
    assert b"a" in engine.live_keys() and b"b" not in engine.live_keys()
    records = {r.key: r for r in engine.scan_records()}
    assert set(records) == {b"a"}
    assert records[b"a"].value == b"1"
    assert records[b"a"].expire_at is None


def test_keys_command_and_flush(engine):
    engine.execute("SET", "user1", "x")
    engine.execute("SET", "user2", "y")
    engine.execute("SET", "other", "z")
    assert sorted(engine.execute("KEYS", "user*")) == [b"user1", b"user2"]
    engine.execute("FLUSHALL")
    assert engine.execute("DBSIZE") == 0


def test_replication_over_either_engine(engine):
    manager = ReplicationManager(engine)
    link = manager.add_replica("r0", delay=0.001)
    assert link.replica.engine_name == engine.engine_name
    engine.execute("SET", "pii", "secret")
    engine.clock.advance(0.01)
    assert link.replica.execute("GET", "pii") == b"secret"
    engine.execute("DEL", "pii")
    assert manager.key_visible_anywhere(b"pii")   # replica still serves it
    horizon = manager.erasure_horizon([b"pii"], step=0.0005)
    assert horizon is not None and horizon <= 0.002


@pytest.fixture(params=sorted(FACTORIES))
def gdpr_store(request):
    clock = SimClock()
    engine = FACTORIES[request.param](clock)
    return GDPRStore(kv=engine, config=GDPRConfig(),
                     keystore=KeyStore())


def _meta(owner):
    return GDPRMetadata(owner=owner, purposes=frozenset({"service"}))


def test_gdpr_erasure_over_either_engine(gdpr_store):
    store = gdpr_store
    for number in range(4):
        owner = "alice" if number % 2 == 0 else "bob"
        store.put(f"user:{number}", b"data", _meta(owner))
    assert store.keys_of_subject("alice") == ["user:0", "user:2"]
    from repro.gdpr.rights import right_to_erasure
    receipt = right_to_erasure(store, "alice")
    assert receipt.keys_erased == ["user:0", "user:2"]
    assert receipt.crypto_erased
    assert not store.subject_exists("alice")
    assert store.subject_exists("bob")
    # Erasure events were timestamped off the engine's deletion tap.
    erased = {event.key for event in store.erasure_events}
    assert {"user:0", "user:2"} <= erased
    # Compaction leaves no trace in the durable log.
    assert not receipt.residual_in_aof


def test_gdpr_ttl_erasure_over_either_engine(gdpr_store):
    store = gdpr_store
    store.put("user:ttl", b"data",
              GDPRMetadata(owner="carol",
                           purposes=frozenset({"service"}), ttl=10.0))
    store.clock.advance(11)
    store.tick()
    report = store.erasure_report()
    assert report["events"] >= 1
    assert not store.subject_exists("carol")


def test_gdpr_index_rebuild_over_either_engine(gdpr_store):
    store = gdpr_store
    for number in range(3):
        store.put(f"user:{number}", b"data", _meta("alice"))
    store.index.clear()
    assert store.rebuild_indexes() == 3
    assert store.keys_of_subject("alice") == \
        ["user:0", "user:1", "user:2"]


# -- cross-tier indistinguishability -----------------------------------------

# A scripted client session with two non-command markers: ("advance", s)
# moves the clock, ("demote",) force-demotes every hot record on the
# tiered run (a no-op on the hot-only run).  Every reply the client sees
# must be identical either way.
_TIER_SCRIPT = [
    ("SET", "a", "1"), ("SET", "b", "2"), ("SET", "c", "3"),
    ("SET", "d", "4"),
    ("EXPIRE", "c", 30), ("EXPIRE", "d", 2),
    ("advance", 1), ("demote",),
    ("GET", "a"), ("TTL", "c"), ("EXISTS", "a", "b", "nope"),
    ("KEYS", "*"), ("DBSIZE",),
    ("advance", 5),                       # d's deadline passes while cold
    ("GET", "d"), ("DBSIZE",), ("KEYS", "*"),
    ("demote",),
    ("DEL", "b", "missing"), ("EXISTS", "b"),
    ("SET", "a", "overwrite"), ("GET", "a"),
    ("SET", "c", "3!"), ("GET", "c"), ("TTL", "c"),
    ("demote",), ("advance", 1),
    ("GET", "a"), ("GET", "b"), ("GET", "c"), ("DBSIZE",),
]


def _run_script(engine, script):
    replies = []
    for step in script:
        if step[0] == "advance":
            engine.clock.advance(step[1])
        elif step[0] == "demote":
            if isinstance(engine, TieredEngine):
                engine.demote_keys(engine.inner.live_keys(0))
        else:
            reply = engine.execute(*step)
            if step[0] == "KEYS":       # order is unspecified; normalize
                reply = sorted(reply)
            replies.append((step, reply))
    final = sorted((r.key, r.value, r.expire_at)
                   for r in engine.scan_records())
    return replies, final


@pytest.mark.parametrize("base", ["redislike", "relational"])
def test_tiered_engine_indistinguishable_from_hot_only(base):
    """The same client script against a hot-only engine and a tiered one
    (with forced demotions interleaved) produces identical replies and
    an identical final keyspace."""
    hot_replies, hot_final = _run_script(
        FACTORIES[base](SimClock()), _TIER_SCRIPT)
    tiered_engine = FACTORIES[f"tiered-{base}"](SimClock())
    tiered_replies, tiered_final = _run_script(tiered_engine, _TIER_SCRIPT)
    assert tiered_replies == hot_replies
    assert tiered_final == hot_final
    # The script really did exercise the archive, not an empty cold path.
    assert tiered_engine.demotions > 0
    assert tiered_engine.promotions > 0


# -- tenant isolation --------------------------------------------------------

# Two tenants sharing one store, deliberately using the *same* local key
# names and the same subject name: the strongest aliasing case.  Tenant
# A's views and rights fan-out must never observe tenant B -- on both
# engines and through the tiered wrapper (same four factories), and over
# a 2-shard networked cluster of GDPR shards whose shards both hold each
# tenant's alice.

@pytest.fixture(params=sorted(FACTORIES) + ["sharded-2"])
def tenant_base(request):
    if request.param == "sharded-2":
        from repro.cluster import GDPRClient, build_cluster, gdpr_shards
        return GDPRClient(build_cluster(2, clock=SimClock(),
                                        store_factory=gdpr_shards()))
    return GDPRStore(kv=FACTORIES[request.param](SimClock()),
                     config=GDPRConfig(), keystore=KeyStore())


def _engines(base):
    return [shard.kv for shard in getattr(base, "shards", [base])]


def _two_tenants(store):
    from repro.tenancy import TenantStore
    a = TenantStore(store, "acme")
    b = TenantStore(store, "globex")
    for number in range(3):
        a.put(f"user:{number}", b"a-data", _meta("alice"))
        b.put(f"user:{number}", b"b-data", _meta("alice"))
    return a, b


def test_tenant_keyspace_views_are_disjoint(tenant_base):
    a, b = _two_tenants(tenant_base)
    assert a.keys() == ["user:0", "user:1", "user:2"]
    assert b.keys() == ["user:0", "user:1", "user:2"]
    assert a.key_count() == b.key_count() == 3
    engines = _engines(tenant_base)
    # The shared engines really hold both namespaces...
    assert sum(engine.key_count() for engine in engines) == 6
    # ...and the prefix views cut them apart exactly.
    for engine in engines:
        for key in engine.live_keys_with_prefix("acme/"):
            assert key.startswith(b"acme/")
    assert sum(engine.key_count_with_prefix("acme/")
               for engine in engines) == 3
    # Values never bleed across the namespace boundary.
    assert a.get("user:0").value == b"a-data"
    assert b.get("user:0").value == b"b-data"


def test_tenant_subject_indexes_are_disjoint(tenant_base):
    a, b = _two_tenants(tenant_base)
    assert a.keys_of_subject("alice") == ["user:0", "user:1", "user:2"]
    assert b.keys_of_subject("alice") == ["user:0", "user:1", "user:2"]
    assert a.subject_exists("alice") and b.subject_exists("alice")


def test_tenant_access_report_stays_inside_the_tenant(tenant_base):
    a, _ = _two_tenants(tenant_base)
    report = a.access_report("alice")
    assert len(report.records) == 3
    for row in report.records:
        assert row["key"].startswith("acme/")
        assert not row["key"].startswith("globex/")


def test_tenant_export_stays_inside_the_tenant(tenant_base):
    a, _ = _two_tenants(tenant_base)
    exported = a.export_subject("alice").decode("utf-8")
    assert "acme/" in exported
    assert "globex" not in exported


def test_tenant_erasure_fanout_stops_at_the_boundary(tenant_base):
    a, b = _two_tenants(tenant_base)
    receipt = a.erase_subject("alice")
    assert sorted(receipt.keys_erased) \
        == ["acme/user:0", "acme/user:1", "acme/user:2"]
    assert receipt.crypto_erased
    assert not a.subject_exists("alice")
    assert a.keys() == []
    # Tenant B's same-named subject survives untouched and servable:
    # its records seal under the distinct globex/alice data key.
    assert b.subject_exists("alice")
    assert b.keys() == ["user:0", "user:1", "user:2"]
    for number in range(3):
        assert b.get(f"user:{number}").value == b"b-data"


# -- registry hygiene --------------------------------------------------------

def test_register_engine_rejects_duplicate_name():
    """Two different classes cannot claim one engine name; re-registering
    the same class is idempotent."""
    register_engine("redislike", KeyValueStore)     # same class: no-op
    assert ENGINES["redislike"] is KeyValueStore
    with pytest.raises(ValueError, match="already registered"):
        register_engine("redislike", RelationalStore)
    assert ENGINES["redislike"] is KeyValueStore    # registry unchanged
