"""Properties: replicas converge to exactly the primary's visible state,
and no copy of a deleted key survives the reported erasure horizon."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterReplication
from repro.common.clock import SimClock
from repro.common.errors import WrongTypeError
from repro.common.resp import RespError
from repro.kvstore import KeyValueStore, ReplicationManager, StoreConfig, ZSet

KEYS = [b"a", b"b", b"c"]
VALS = [b"1", b"2"]

ops = st.lists(
    st.one_of(
        st.tuples(st.just("SET"), st.sampled_from(KEYS),
                  st.sampled_from(VALS)),
        st.tuples(st.just("DEL"), st.sampled_from(KEYS)),
        st.tuples(st.just("APPEND"), st.sampled_from(KEYS),
                  st.sampled_from(VALS)),
        st.tuples(st.just("INCR"), st.just(b"counter")),
        st.tuples(st.just("EXPIRE"), st.sampled_from(KEYS),
                  st.integers(1, 100)),
        st.tuples(st.just("ZADD"), st.just(b"zset"),
                  st.sampled_from(VALS), st.sampled_from(KEYS)),
        st.tuples(st.just("HSET"), st.just(b"hash"),
                  st.sampled_from(KEYS), st.sampled_from(VALS)),
    ),
    max_size=40)


def _plain(value):
    """A stored value as comparable data (a sorted set as its pairs)."""
    return list(value.items()) if isinstance(value, ZSet) else value


def state_of(store):
    """What a reader can see: a key whose deadline has passed is absent
    whether or not it has been collected yet (the primary expires
    lazily; a replica applying ``PEXPIREAT`` at or past the deadline
    drops the key at once), and the rest carry their deadlines."""
    db = store.databases[0]
    now = store.clock.now()
    gone = {key for key, deadline in db.expires.items() if deadline <= now}
    return ({key: _plain(db.get_value(key)) for key in sorted(db.keys())
             if key not in gone},
            {key: round(deadline, 6) for key, deadline in db.expires.items()
             if key not in gone})


@given(ops, st.floats(min_value=0.0, max_value=1.0))
# TTL <= delay + 1 ms: at t = 1.001 the primary still physically holds
# the expired key, the replica never materialised it.
@example([("SET", b"a", b"1"), ("EXPIRE", b"a", 1)], 1.0)
@settings(max_examples=40, deadline=None)
def test_replica_converges_to_primary(op_list, delay):
    clock = SimClock()
    primary = KeyValueStore(StoreConfig(), clock=clock)
    manager = ReplicationManager(primary)
    link = manager.add_replica("r", delay=delay)
    for op in op_list:
        try:
            primary.execute(*op)
        except (WrongTypeError, RespError):
            pass  # type conflicts are legitimate no-ops
    clock.advance(delay + 0.001)
    assert state_of(link.replica) == state_of(primary)


@given(ops)
@settings(max_examples=25, deadline=None)
def test_two_replicas_identical(op_list):
    clock = SimClock()
    primary = KeyValueStore(StoreConfig(), clock=clock)
    manager = ReplicationManager(primary)
    a = manager.add_replica("a", delay=0.0)
    b = manager.add_replica("b", delay=0.5)
    for op in op_list:
        try:
            primary.execute(*op)
        except (WrongTypeError, RespError):
            pass
    clock.advance(1.0)
    assert state_of(a.replica) == state_of(b.replica)


# Writes and deletes on KEYS with clock advances in between: the
# pre-deletion writes of a key may still be in flight when it is erased.
scripts = st.lists(
    st.one_of(
        st.tuples(st.just("SET"), st.sampled_from(KEYS),
                  st.sampled_from(VALS)),
        st.tuples(st.just("APPEND"), st.sampled_from(KEYS),
                  st.sampled_from(VALS)),
        st.tuples(st.just("DEL"), st.sampled_from(KEYS)),
        st.tuples(st.just("ADVANCE"), st.floats(0.0, 0.06))),
    max_size=30)
replica_delays = st.lists(st.floats(0.0, 0.1), min_size=1, max_size=2)


def replica_groups(topology, clock, delays):
    """``(groups, primary_of, horizon)`` for a bare manager, or for a
    two-shard cluster registry routing KEYS alternately."""
    if topology == "manager":
        manager = ReplicationManager(
            KeyValueStore(StoreConfig(), clock=clock), delays=delays)
        return ([manager], lambda key: manager.primary,
                manager.erasure_horizon)
    primaries = [KeyValueStore(StoreConfig(), clock=clock)
                 for _ in range(2)]
    registry = ClusterReplication(clock, list(enumerate(primaries)),
                                  delays=delays)
    return (list(registry.groups.values()),
            lambda key: primaries[KEYS.index(key) % 2],
            registry.erasure_horizon)


@pytest.mark.parametrize("topology", ["manager", "cluster"])
@given(scripts, replica_delays)
# The pre-deletion SET is still queued when the DEL is issued: the
# replica serves the key 40-49 ms after the DEL.
@example([("SET", b"a", b"1"), ("ADVANCE", 0.010), ("DEL", b"a")], [0.050])
@settings(max_examples=40, deadline=None)
def test_no_copy_survives_the_reported_horizon(topology, script, delays):
    clock = SimClock()
    groups, primary_of, horizon_of = replica_groups(topology, clock, delays)
    for op in script:
        if op[0] == "ADVANCE":
            clock.advance(op[1])
        else:
            primary_of(op[1]).execute(*op)
    deleted = [key for key in KEYS
               if primary_of(key).execute("EXISTS", key) == 0]
    assert horizon_of(deleted, step=0.001) is not None
    stores = [group.primary for group in groups] + [
        link.replica for group in groups for link in group.links]
    settled = clock.now() + max(delays) + 0.002
    while True:
        for key in deleted:
            assert all(store.execute("GET", key) is None
                       for store in stores), key
        if clock.now() >= settled:
            break
        clock.advance(0.001)
