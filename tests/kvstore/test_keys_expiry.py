"""Tests for generic key commands and expiry semantics."""

import pytest

from repro.common.clock import SimClock
from repro.common.resp import RespError, SimpleString
from repro.kvstore import KeyValueStore, StoreConfig
from tests.support import assert_refused


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def store(clock):
    return KeyValueStore(clock=clock)


class TestDelete:
    def test_del_existing(self, store):
        store.execute("SET", "k", "v")
        assert store.execute("DEL", "k") == 1
        assert store.execute("GET", "k") is None

    def test_del_missing(self, store):
        assert store.execute("DEL", "nope") == 0

    def test_del_multiple(self, store):
        store.execute("SET", "a", "1")
        store.execute("SET", "b", "2")
        assert store.execute("DEL", "a", "b", "c") == 2

    def test_unlink_equivalent(self, store):
        store.execute("SET", "k", "v")
        assert store.execute("UNLINK", "k") == 1

    def test_del_clears_ttl_state(self, store):
        store.execute("SET", "k", "v", "EX", 100)
        store.execute("DEL", "k")
        store.execute("SET", "k", "v")
        assert store.execute("TTL", "k") == -1

    def test_deletion_listener_fires(self, store):
        events = []
        store.add_deletion_listener(
            lambda db, key, reason, when: events.append((key, reason)))
        store.execute("SET", "k", "v")
        store.execute("DEL", "k")
        assert events == [(b"k", "del")]


class TestExistsTypeKeys:
    def test_exists(self, store):
        store.execute("SET", "k", "v")
        assert store.execute("EXISTS", "k") == 1
        assert store.execute("EXISTS", "k", "missing", "k") == 2

    def test_type(self, store):
        # TYPE is not served; a command's WRONGTYPE refusal is how a
        # client learns a key's type.
        store.execute("SET", "s", "v")
        store.execute("HSET", "h", "f", "v")
        store.execute("ZADD", "z", "1", "a")
        for key in ("s", "h", "z", "none"):
            assert_refused(store, "TYPE", key)

    def test_keys_glob(self, store):
        for key in ("user:1", "user:2", "other"):
            store.execute("SET", key, "v")
        keys = sorted(store.execute("KEYS", "user:*"))
        assert keys == [b"user:1", b"user:2"]

    def test_keys_star(self, store):
        store.execute("SET", "a", "1")
        store.execute("SET", "b", "2")
        assert len(store.execute("KEYS", "*")) == 2

    def test_randomkey(self, store):
        store.execute("SET", "only", "v")
        assert_refused(store, "RANDOMKEY")

    def test_rename(self, store):
        store.execute("SET", "old", "v", "EX", 50)
        assert_refused(store, "RENAME", "old", "new")
        assert store.execute("TTL", "old") == 50

    def test_rename_missing(self, store):
        assert_refused(store, "RENAME", "ghost", "x")


class TestScan:
    def test_scan_full_iteration(self, store):
        for i in range(25):
            store.execute("SET", f"k{i}", "v")
        cursor = 0
        seen = set()
        while True:
            cursor_bytes, keys = store.execute("SCAN", cursor)
            seen.update(keys)
            cursor = int(cursor_bytes)
            if cursor == 0:
                break
        assert len(seen) == 25

    def test_scan_match(self, store):
        store.execute("SET", "a:1", "x")
        store.execute("SET", "b:1", "y")
        _, keys = store.execute("SCAN", 0, "MATCH", "a:*", "COUNT", 100)
        assert keys == [b"a:1"]

    def test_scan_bad_count(self, store):
        with pytest.raises(RespError):
            store.execute("SCAN", 0, "COUNT", 0)

    def test_scan_bad_syntax(self, store):
        with pytest.raises(RespError):
            store.execute("SCAN", 0, "BOGUS")


class TestTTL:
    def test_expire_and_ttl(self, store):
        store.execute("SET", "k", "v")
        assert store.execute("EXPIRE", "k", 100) == 1
        assert store.execute("TTL", "k") == 100

    def test_expire_missing_key(self, store):
        assert store.execute("EXPIRE", "ghost", 100) == 0

    def test_ttl_missing_key(self, store):
        assert store.execute("TTL", "ghost") == -2

    def test_ttl_no_expiry(self, store):
        store.execute("SET", "k", "v")
        assert store.execute("TTL", "k") == -1

    def test_pexpire_pttl(self, store):
        store.execute("SET", "k", "v")
        store.execute("PEXPIRE", "k", 2500)
        assert store.execute("PTTL", "k") == 2500

    def test_expireat(self, store, clock):
        store.execute("SET", "k", "v")
        store.execute("EXPIREAT", "k", int(clock.now()) + 60)
        assert 58 <= store.execute("TTL", "k") <= 60

    def test_negative_ttl_deletes_now(self, store):
        store.execute("SET", "k", "v")
        assert store.execute("EXPIRE", "k", -1) == 1
        assert store.execute("GET", "k") is None

    def test_persist(self, store):
        store.execute("SET", "k", "v", "EX", 100)
        assert store.execute("PERSIST", "k") == 1
        assert store.execute("TTL", "k") == -1

    def test_persist_without_ttl(self, store):
        store.execute("SET", "k", "v")
        assert store.execute("PERSIST", "k") == 0

    def test_persist_missing(self, store):
        assert store.execute("PERSIST", "ghost") == 0


class TestLazyExpiration:
    def test_expired_key_invisible_on_get(self, store, clock):
        store.execute("SET", "k", "v", "EX", 10)
        clock.advance(10.5)
        assert store.execute("GET", "k") is None

    def test_expired_key_invisible_to_exists(self, store, clock):
        store.execute("SET", "k", "v", "EX", 10)
        clock.advance(11)
        assert store.execute("EXISTS", "k") == 0

    def test_expired_key_invisible_to_keys(self, store, clock):
        store.execute("SET", "k", "v", "EX", 10)
        clock.advance(11)
        assert store.execute("KEYS", "*") == []

    def test_expired_key_invisible_to_dbsize(self, store, clock):
        store.execute("SET", "a", "v")
        store.execute("SET", "k", "v", "EX", 10)
        assert store.execute("DBSIZE") == 2
        clock.advance(11)
        assert store.execute("DBSIZE") == 1

    def test_lazy_expire_counts_stat(self, store, clock):
        store.execute("SET", "k", "v", "EX", 10)
        clock.advance(11)
        store.execute("GET", "k")
        assert store.stats.expired_keys == 1

    def test_lazy_expire_reason_in_listener(self, store, clock):
        reasons = []
        store.add_deletion_listener(
            lambda db, key, reason, when: reasons.append(reason))
        store.execute("SET", "k", "v", "EX", 10)
        clock.advance(11)
        store.execute("GET", "k")
        assert reasons == ["lazy-expire"]

    def test_not_expired_before_deadline(self, store, clock):
        store.execute("SET", "k", "v", "EX", 10)
        clock.advance(9.99)
        assert store.execute("GET", "k") == b"v"

    def test_write_to_expired_key_recreates(self, store, clock):
        store.execute("SET", "k", "v", "EX", 10)
        clock.advance(11)
        store.execute("APPEND", "k", "new")
        assert store.execute("GET", "k") == b"new"


class TestFlush:
    def test_flushdb(self, store):
        store.execute("SET", "a", "1")
        store.execute("SET", "b", "2")
        assert store.execute("FLUSHDB") == SimpleString("OK")
        assert store.execute("DBSIZE") == 0

    def test_flushall_spans_databases(self, store):
        session = store.session()
        store.execute("SET", "k0", "v", session=session)
        store.execute("SELECT", 1, session=session)
        store.execute("SET", "k1", "v", session=session)
        store.execute("FLUSHALL", session=session)
        assert store.execute("DBSIZE", session=session) == 0
        store.execute("SELECT", 0, session=session)
        assert store.execute("DBSIZE", session=session) == 0


class TestSessions:
    def test_select_isolates_databases(self, store):
        s1 = store.session()
        s2 = store.session()
        store.execute("SET", "k", "one", session=s1)
        store.execute("SELECT", 1, session=s2)
        store.execute("SET", "k", "two", session=s2)
        assert store.execute("GET", "k", session=s1) == b"one"
        assert store.execute("GET", "k", session=s2) == b"two"

    def test_select_out_of_range(self, store):
        with pytest.raises(RespError):
            store.execute("SELECT", 99)

    def test_select_bad_index(self, store):
        with pytest.raises(RespError):
            store.execute("SELECT", "abc")
