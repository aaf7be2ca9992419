"""Relational-engine specifics: plan cache, B-tree costs, ordered
scans, metadata columns, WAL checkpointing, vacuum."""

import pytest

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.device.faults import FaultPlan
from repro.kvstore.replication import ReplicationManager
from repro.sqlstore import RelationalStore, SqlConfig, btree_depth
from repro.ycsb.adapters import SqlAdapter


def make_store(clock=None, **overrides):
    clock = clock if clock is not None else SimClock()
    config = SqlConfig(**overrides)
    return RelationalStore(config, clock=clock,
                           wal_log=AppendLog(clock=clock))


def test_plan_cache_charges_parse_once():
    store = make_store(statement_parse_cost=100e-6,
                      statement_plan_cost=50e-6,
                      statement_cpu_cost=10e-6)
    clock = store.clock
    start = clock.now()
    store.execute("SET", "a", "1")
    first = clock.now() - start
    start = clock.now()
    store.execute("SET", "b", "2")
    second = clock.now() - start
    # First SET paid parse+plan (150us) + exec; the second only exec.
    assert first - second == pytest.approx(150e-6)
    assert store.plans.misses >= 1
    assert store.plans.hits >= 1


def test_btree_depth_grows_logarithmically():
    assert btree_depth(1, 128) == 1
    assert btree_depth(100, 128) == 2
    assert btree_depth(10_000, 128) == 3
    assert btree_depth(1_000_000, 128) == 4


def test_point_lookup_cost_grows_with_table_size():
    small = make_store(index_node_cost=1e-6)
    big = make_store(index_node_cost=1e-6)
    small.execute("SET", "k0", "v")
    for number in range(300):
        big.execute("SET", f"k{number}", "v")

    def read_cost(store, key):
        start = store.clock.now()
        store.execute("GET", key)
        return store.clock.now() - start

    assert read_cost(big, "k0") > read_cost(small, "k0")


def test_range_scan_is_ordered_and_respects_limit():
    store = make_store()
    for number in (3, 1, 4, 1, 5, 9, 2, 6):
        store.execute("SET", f"user{number}", b"x")
    assert store.execute("RANGE", "user2", 3) == \
        [b"user2", b"user3", b"user4"]
    # Expired rows drop out of the window.
    store.execute("EXPIRE", "user3", 1)
    store.clock.advance(2)
    assert store.execute("RANGE", "user2", 3) == \
        [b"user2", b"user4", b"user5"]


def test_sql_adapter_scan_needs_no_shadow_index():
    store = make_store()
    adapter = SqlAdapter(store)
    for number in range(10):
        adapter.insert(f"user{number:02d}", {"f0": b"v"})
    window = adapter.scan("user03", 4)
    assert len(window) == 4
    # No auxiliary key was created for scan support.
    assert store.key_count() == 10


def test_metadata_columns_and_owner_index():
    store = make_store()
    store.execute("SET", "u1", "x")
    store.execute("SET", "u2", "y")
    store.annotate_metadata([("u1", "alice", {"service", "ads"})])
    store.annotate_metadata([("u2", "bob", {"service"})])
    assert store.keys_of_owner("alice") == ["u1"]
    assert store.table.get(b"u1").purposes == "ads,service"
    # Re-annotation moves the row between owner buckets.
    store.annotate_metadata([("u1", "bob", {"service"})])
    assert store.keys_of_owner("alice") == []
    assert store.keys_of_owner("bob") == ["u1", "u2"]
    # Deleting the row cleans the index.
    store.execute("DEL", "u1")
    assert store.keys_of_owner("bob") == ["u2"]


def test_batched_annotation_is_one_statement_over_live_rows():
    from repro.common.errors import ArityError

    store = make_store()
    store.execute("SET", "u1", "x")
    store.execute("SET", "u2", "y")
    statements = store.stats.commands_processed
    records = store.aof.records_written
    assert store.execute("GDPRMETA", "u1", "alice", "ads",
                         "gone", "alice", "ads",
                         "u2", "bob", "service") == 2
    assert (store.stats.commands_processed, store.aof.records_written) \
        == (statements + 1, records + 1)
    assert store.keys_of_owner("alice") == ["u1"]
    assert store.keys_of_owner("bob") == ["u2"]
    assert store.key_count() == 2
    # A row that is not live changes nothing: no dirty write is logged.
    assert store.execute("GDPRMETA", "gone", "alice", "ads") == 0
    assert store.aof.records_written == records + 1
    with pytest.raises(ArityError, match="'gdprmeta'"):
        store.execute("GDPRMETA", "u1", "alice", "ads", "u2", "bob")


def test_metadata_columns_replicate_and_replay():
    store = make_store()
    store.execute("SET", "u1", "x")
    store.annotate_metadata([("u1", "alice", {"service"})])
    replica = store.spawn_replica()
    replica.replay_aof(store.aof_log.read_all())
    assert replica.keys_of_owner("alice") == ["u1"]
    # And survive a checkpointed (compacted) WAL too.
    store.rewrite_aof()
    replica2 = store.spawn_replica()
    replica2.replay_aof(store.aof_log.read_all())
    assert replica2.keys_of_owner("alice") == ["u1"]


def test_full_sync_preserves_metadata_columns():
    store = make_store()
    store.execute("SET", "u1", "x")
    store.annotate_metadata([("u1", "alice", {"service"})])
    replica = ReplicationManager(store, delays=[0.0]).links[0].replica
    assert replica.keys_of_owner("alice") == ["u1"]


def test_vacuum_reclaims_due_rows_in_one_sweep():
    store = make_store()
    for number in range(5):
        store.execute("SET", f"k{number}", "v")
        store.execute("EXPIRE", f"k{number}", 1)
    store.execute("SET", "keeper", "v")
    store.clock.advance(2)
    reclaimed = store.vacuum()
    assert reclaimed == 5
    assert store.vacuum_runs == 1
    assert store.key_count() == 1
    assert store.stats.expired_keys == 5


def test_expiry_index_stays_bounded_by_the_table():
    """Every SET ... PXAT supersedes the row's previous deadline; the
    superseded index entries are dropped once they outnumber the rows,
    and the sweep still reclaims exactly the due rows."""
    store = make_store()
    for number in range(2000):
        store.execute("SET", f"k{number % 10}", "v", "PXAT",
                      5000 + number)
    assert len(store.table._expiry_heap) <= 2 * len(store.table) + 64
    store.execute("SET", "late", "v", "PXAT", 9000)
    assert store.vacuum(now=8.0) == 10
    assert store.execute("KEYS", "*") == [b"late"]


def test_wal_fsync_everysec_batches_durability():
    clock = SimClock()
    store = make_store(clock=clock, wal_fsync="everysec")
    store.execute("SET", "a", "1")
    assert store.aof_log.unsynced_bytes > 0    # flushed, not yet durable
    clock.advance(1.1)
    store.tick()
    assert store.aof_log.unsynced_bytes == 0


def test_periodic_checkpoint_bounds_deleted_data():
    # The checkpoint runs on demand (an Art. 17 compaction calls it),
    # never on a timer.
    with pytest.raises(TypeError):
        make_store(checkpoint_interval=5.0)
    clock = SimClock()
    store = make_store(clock=clock)
    store.execute("SET", "gone", "x")
    store.execute("DEL", "gone")
    from repro.kvstore.aof import contains_key
    assert contains_key(store.aof_log.read_all(), b"gone")
    clock.advance(6)
    store.tick()
    assert store.rewrites_completed == 0
    store.rewrite_aof()
    assert store.rewrites_completed == 1
    assert not contains_key(store.aof_log.read_all(), b"gone")


def test_crash_replay_from_durable_wal_only():
    clock = SimClock()
    store = make_store(clock=clock, wal_fsync="always")
    store.execute("SET", "a", "1")
    store.execute("HSET", "b", "f", "2")
    FaultPlan(store.aof_log).power_loss()
    recovered = store.reopen()
    assert recovered.execute("GET", "a") == b"1"
    assert recovered.execute("HGET", "b", "f") == b"2"


def test_single_database_discipline():
    from repro.common.resp import RespError

    store = make_store()
    session = store.session(db_index=3)
    with pytest.raises(RespError):
        store.execute("SET", "k", "v", session=session)


def test_set_takes_no_options():
    """The relational SET is an upsert whose only option is an absolute
    deadline (PXAT / EXAT): an option it cannot honour (a relative TTL,
    NX/XX) is refused instead of dropped."""
    from repro.common.resp import RespError

    store = make_store()
    with pytest.raises(RespError, match="syntax error"):
        store.execute("SET", "k", "v", "EX", 10)
    assert store.execute("GET", "k") is None
