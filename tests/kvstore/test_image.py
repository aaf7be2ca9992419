"""Tests for the keyspace image: the one whole-keyspace format.

A full sync ships :func:`repro.kvstore.aof.image`, BGSAVE writes it, and
a backup generation is the same records laid out into parts: the log's
compacted form, replayed to recreate the keyspace.
"""

import pytest

from repro.common.clock import SimClock
from repro.kvstore import KeyValueStore
from repro.kvstore.aof import image, mentioned_keys
from tests.support import ENGINE_FACTORIES, assert_refused


@pytest.fixture
def store():
    return KeyValueStore(clock=SimClock())


def copy_of(store, target=None):
    """``target`` (default: an empty store on ``store``'s clock) after a
    full sync's load of ``store``'s image: a flush, then its replay."""
    if target is None:
        target = KeyValueStore(clock=store.clock)
    target.execute("FLUSHALL")
    target.replay_aof(image(store))
    return target


@pytest.mark.parametrize("variant", ["redislike", "relational"])
def test_image_is_what_bgrewriteaof_writes_on_an_unsplit_log(variant):
    store = ENGINE_FACTORIES[variant](SimClock())
    store.execute("SET", "s", "value")
    store.execute("HSET", "h", "f", "v")
    store.execute("EXPIRE", "h", 90)
    store.annotate_metadata([("s", "alice", ["ads"])])
    if store.database_count > 1:
        store.execute("SET", "k3", "v3", session=store.session(3))
    store.rewrite_aof()
    assert not store.aof.split
    assert store.aof.read_all() == image(store)


class TestRoundtrip:
    def test_all_types_roundtrip(self, store):
        store.execute("SET", "s", "value")
        store.execute("HSET", "h", "f1", "v1", "f2", "v2")
        store.execute("ZADD", "z", "1.5", "m1", "2.5", "m2")
        fresh = copy_of(store)
        assert fresh.key_count() == 3
        assert fresh.execute("GET", "s") == b"value"
        assert fresh.execute("HGET", "h", "f2") == b"v2"
        assert fresh.execute("ZRANGEBYSCORE", "z", "-inf", "+inf") == \
            [b"m1", b"m2"]

    def test_expiry_preserved(self, store):
        store.execute("SET", "k", "v", "EX", 100)
        fresh = copy_of(store)
        assert 99 <= fresh.execute("TTL", "k") <= 100

    def test_multiple_databases(self, store):
        session = store.session()
        store.execute("SET", "k0", "v0", session=session)
        store.execute("SELECT", 3, session=session)
        store.execute("SET", "k3", "v3", session=session)
        fresh = copy_of(store)
        s = fresh.session()
        assert fresh.execute("GET", "k0", session=s) == b"v0"
        fresh.execute("SELECT", 3, session=s)
        assert fresh.execute("GET", "k3", session=s) == b"v3"

    def test_empty_store(self, store):
        assert image(store) == b""
        assert copy_of(store).key_count() == 0

    def test_load_replaces_existing_state(self, store):
        store.execute("SET", "k", "v")
        fresh = KeyValueStore()
        fresh.execute("SET", "stale", "x")
        copy_of(store, fresh)
        assert fresh.execute("GET", "stale") is None
        assert fresh.execute("GET", "k") == b"v"

    def test_binary_payloads(self, store):
        payload = bytes(range(256))
        store.execute("SET", b"\x00key", payload)
        assert copy_of(store).execute("GET", b"\x00key") == payload


class TestMentions:
    def test_image_mentions_deleted_key_until_retaken(self, store):
        # The section 4.3 concern applied to whole-keyspace copies.
        store.execute("SET", "doomed", "pii")
        first = image(store)
        store.execute("DEL", "doomed")
        assert mentioned_keys(first, [b"doomed"]) == {b"doomed"}
        assert mentioned_keys(image(store), [b"doomed"]) == set()

    def test_save_command(self, store):
        # SAVE and BGSAVE are not commands: aof.image() is the entry.
        store.execute("SET", "k", "v")
        assert_refused(store, "SAVE")
        assert_refused(store, "BGSAVE")
