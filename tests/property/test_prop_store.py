"""Property-based tests over store-level invariants: AOF replay
equivalence, index consistency, and expiry-strategy agreement."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.common.errors import WrongTypeError
from repro.common.resp import RespError
from repro.gdpr import GDPRConfig, GDPRMetadata, GDPRStore
from repro.kvstore import KeyValueStore, StoreConfig

KEYS = [b"k0", b"k1", b"k2", b"k3"]
VALUES = [b"v0", b"v1", b"v2"]

kv_ops = st.lists(
    st.one_of(
        st.tuples(st.just("SET"), st.sampled_from(KEYS),
                  st.sampled_from(VALUES)),
        st.tuples(st.just("DEL"), st.sampled_from(KEYS)),
        st.tuples(st.just("APPEND"), st.sampled_from(KEYS),
                  st.sampled_from(VALUES)),
        st.tuples(st.just("HSET"), st.sampled_from(KEYS),
                  st.sampled_from(VALUES), st.sampled_from(VALUES)),
        st.tuples(st.just("EXPIRE"), st.sampled_from(KEYS),
                  st.integers(1, 1000)),
    ),
    max_size=30)


def state_of(store):
    db = store.databases[0]
    return {key: db.get_value(key) for key in sorted(db.keys())}


@given(kv_ops)
@settings(max_examples=40, deadline=None)
def test_aof_replay_reaches_identical_state(ops):
    """Replaying the AOF reconstructs exactly the pre-crash dataset."""
    clock = SimClock()
    store = KeyValueStore(StoreConfig(appendonly=True), clock=clock)
    for op in ops:
        try:
            store.execute(*op)
        except (WrongTypeError, RespError):
            pass  # type conflicts (HSET on string) are fine to skip
    replayed = store.reopen()
    assert state_of(replayed) == state_of(store)
    # Expiry deadlines match too (propagated as absolute PEXPIREAT).
    assert {k: round(v, 3) for k, v in
            store.databases[0].expires.items()} == \
        {k: round(v, 3) for k, v in
         replayed.databases[0].expires.items()}


@given(kv_ops)
@settings(max_examples=40, deadline=None)
def test_rewrite_preserves_state(ops):
    """An AOF rewrite never changes the dataset it compacts."""
    store = KeyValueStore(StoreConfig(appendonly=True))
    for op in ops:
        try:
            store.execute(*op)
        except (WrongTypeError, RespError):
            pass
    before = state_of(store)
    store.rewrite_aof()
    assert state_of(store.reopen()) == before


gdpr_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(["a", "b", "c"]),
                  st.sampled_from(["alice", "bob"]),
                  st.frozensets(st.sampled_from(["billing", "ads"]),
                                min_size=1)),
        st.tuples(st.just("delete"), st.sampled_from(["a", "b", "c"])),
    ),
    max_size=25)


@given(gdpr_ops)
@settings(max_examples=30, deadline=None)
def test_gdpr_index_matches_keyspace(ops):
    """The owner index always agrees with live keyspace contents."""
    store = GDPRStore(
        kv=KeyValueStore(StoreConfig(appendonly=True)),
        config=GDPRConfig(encrypt_at_rest=False))
    model = {}
    for op in ops:
        if op[0] == "put":
            _, key, owner, purposes = op
            store.put(key, b"v", GDPRMetadata(owner=owner,
                                              purposes=purposes))
            model[key] = owner
        else:
            _, key = op
            store.delete(key)
            model.pop(key, None)
    for owner in ("alice", "bob"):
        expected = sorted(k for k, o in model.items() if o == owner)
        assert store.keys_of_subject(owner) == expected
    # Every indexed key is readable; every unindexed key is gone.
    for key in ("a", "b", "c"):
        if key in model:
            assert store.get(key).metadata.owner == model[key]
        else:
            try:
                store.get(key)
                assert False, f"{key} should be gone"
            except KeyError:
                pass


@given(st.integers(10, 300), st.floats(0.05, 0.9),
       st.sampled_from(["fullscan", "indexed"]))
@settings(max_examples=20, deadline=None)
def test_immediate_strategies_erase_everything_first_cycle(
        total, fraction, strategy):
    """Both fixed strategies erase all expired keys in one cron pass."""
    store = KeyValueStore(StoreConfig(expiry_strategy=strategy))
    db = store.databases[0]
    now = store.clock.now()
    expired = int(total * fraction)
    for i in range(total):
        key = f"k{i}".encode()
        db.set_value(key, b"v")
        deadline = now - 1 if i < expired else now + 1000
        store.set_key_expiry(db, key, deadline)
    assert store.cron() == expired
    assert len(db) == total - expired
