"""Tests for hash and sorted-set commands.

The list and set value types are gone with their commands (LPUSH,
RPUSH, LPOP, RPOP, LRANGE, LINDEX, LLEN, SADD, SREM, SMEMBERS,
SISMEMBER, SCARD): their tests check that each is refused.
"""

import pytest

from repro.common.errors import WrongTypeError
from repro.common.resp import RespError, SimpleString
from repro.kvstore import KeyValueStore
from tests.support import assert_refused


@pytest.fixture
def store():
    return KeyValueStore()


class TestHash:
    def test_hset_hget(self, store):
        assert store.execute("HSET", "h", "f", "v") == 1
        assert store.execute("HGET", "h", "f") == b"v"

    def test_hset_multiple_fields(self, store):
        assert store.execute("HSET", "h", "a", "1", "b", "2") == 2

    def test_hset_update_returns_zero(self, store):
        store.execute("HSET", "h", "f", "v")
        assert store.execute("HSET", "h", "f", "w") == 0
        assert store.execute("HGET", "h", "f") == b"w"

    def test_hset_odd_pairs(self, store):
        with pytest.raises(RespError):
            store.execute("HSET", "h", "a", "1", "b")

    def test_hmset(self, store):
        assert store.execute("HMSET", "h", "a", "1") == SimpleString("OK")

    def test_hsetnx(self, store):
        store.execute("HSET", "h", "f", "v")
        assert_refused(store, "HSETNX", "h", "f", "w")

    def test_hget_missing(self, store):
        assert store.execute("HGET", "h", "f") is None
        store.execute("HSET", "h", "f", "v")
        assert store.execute("HGET", "h", "other") is None

    def test_hmget(self, store):
        store.execute("HSET", "h", "a", "1", "b", "2")
        assert store.execute("HMGET", "h", "a", "x", "b") == \
            [b"1", None, b"2"]

    def test_hgetall(self, store):
        store.execute("HSET", "h", "a", "1", "b", "2")
        flat = store.execute("HGETALL", "h")
        assert dict(zip(flat[::2], flat[1::2])) == {b"a": b"1", b"b": b"2"}

    def test_hgetall_missing(self, store):
        assert store.execute("HGETALL", "h") == []

    def test_hdel(self, store):
        store.execute("HSET", "h", "a", "1", "b", "2")
        assert store.execute("HDEL", "h", "a", "x") == 1
        assert store.execute("HLEN", "h") == 1

    def test_hdel_last_field_removes_key(self, store):
        store.execute("HSET", "h", "a", "1")
        store.execute("HDEL", "h", "a")
        assert store.execute("EXISTS", "h") == 0

    def test_hlen_hexists(self, store):
        store.execute("HSET", "h", "a", "1")
        assert store.execute("HLEN", "h") == 1
        assert store.execute("HMGET", "h", "a", "b") == [b"1", None]
        assert_refused(store, "HEXISTS", "h", "a")

    def test_hkeys_hvals(self, store):
        # HGETALL is the one whole-hash read: fields and values in
        # stored order.
        store.execute("HSET", "h", "a", "1", "b", "2")
        assert store.execute("HGETALL", "h") == [b"a", b"1", b"b", b"2"]
        assert_refused(store, "HKEYS", "h")
        assert_refused(store, "HVALS", "h")

    def test_hash_on_string_key(self, store):
        store.execute("SET", "s", "v")
        with pytest.raises(WrongTypeError):
            store.execute("HSET", "s", "f", "v")
        with pytest.raises(WrongTypeError):
            store.execute("HGET", "s", "f")


class TestList:
    def test_rpush_lrange(self, store):
        assert_refused(store, "RPUSH", "l", "a", "b", "c")
        assert_refused(store, "LRANGE", "l", 0, -1)

    def test_lpush_order(self, store):
        assert_refused(store, "LPUSH", "l", "a", "b")

    def test_push_returns_length(self, store):
        assert_refused(store, "RPUSH", "l", "a")
        assert store.execute("EXISTS", "l") == 0

    def test_lpop_rpop(self, store):
        assert_refused(store, "LPOP", "l")
        assert_refused(store, "RPOP", "l")

    def test_pop_empty(self, store):
        assert_refused(store, "LPOP", "missing")

    def test_pop_last_removes_key(self, store):
        store.execute("SET", "l", "only")
        assert_refused(store, "LPOP", "l")
        assert store.execute("GET", "l") == b"only"

    def test_llen(self, store):
        assert_refused(store, "LLEN", "missing")

    def test_lrange_negative_indexes(self, store):
        assert_refused(store, "LRANGE", "l", -2, -1)

    def test_lrange_out_of_bounds(self, store):
        assert_refused(store, "LRANGE", "l", 5, 10)

    def test_lindex(self, store):
        assert_refused(store, "LINDEX", "l", 0)


class TestSet:
    def test_sadd_smembers(self, store):
        assert_refused(store, "SADD", "s", "a", "b", "a")
        assert_refused(store, "SMEMBERS", "s")

    def test_sismember(self, store):
        assert_refused(store, "SISMEMBER", "s", "a")

    def test_srem(self, store):
        store.execute("SET", "s", "v")
        assert_refused(store, "SREM", "s", "v")

    def test_srem_last_removes_key(self, store):
        assert_refused(store, "SREM", "s", "a")
        assert store.execute("EXISTS", "s") == 0

    def test_scard_missing(self, store):
        assert_refused(store, "SCARD", "missing")


class TestZSet:
    def test_zadd_zscore(self, store):
        assert store.execute("ZADD", "z", "1.5", "a") == 1
        assert store.execute("ZRANGEBYSCORE", "z", "1.5", "1.5") == [b"a"]
        assert store.execute("ZRANGEBYSCORE", "z", "1.6", "+inf") == []
        assert_refused(store, "ZSCORE", "z", "a")

    def test_zadd_update_score(self, store):
        store.execute("ZADD", "z", "1", "a")
        assert store.execute("ZADD", "z", "2", "a") == 0
        assert store.execute("ZRANGEBYSCORE", "z", "2", "2") == [b"a"]
        assert store.execute("ZRANGEBYSCORE", "z", "1", "1") == []

    def test_zcard(self, store):
        store.execute("ZADD", "z", "1", "a", "2", "b")
        assert store.execute("ZRANGEBYSCORE", "z", "-inf", "+inf") == \
            [b"a", b"b"]
        assert_refused(store, "ZCARD", "z")

    def test_zrem(self, store):
        store.execute("ZADD", "z", "1", "a", "2", "b")
        assert store.execute("ZREM", "z", "a", "ghost") == 1
        assert store.execute("ZRANGEBYSCORE", "z", "-inf", "+inf") == [b"b"]

    def test_zrem_last_removes_key(self, store):
        store.execute("ZADD", "z", "1", "a")
        store.execute("ZREM", "z", "a")
        assert store.execute("EXISTS", "z") == 0

    def test_zrangebyscore_ordering(self, store):
        store.execute("ZADD", "z", "3", "c", "1", "a", "2", "b")
        assert store.execute("ZRANGEBYSCORE", "z", "-inf", "+inf") == \
            [b"a", b"b", b"c"]

    def test_zrangebyscore_bounds_inclusive(self, store):
        store.execute("ZADD", "z", "1", "a", "2", "b", "3", "c")
        assert store.execute("ZRANGEBYSCORE", "z", "2", "3") == [b"b", b"c"]

    def test_zrangebyscore_limit(self, store):
        store.execute("ZADD", "z", "1", "a", "2", "b", "3", "c")
        assert store.execute("ZRANGEBYSCORE", "z", "-inf", "+inf",
                             "LIMIT", 1, 1) == [b"b"]

    def test_zrangebyscore_missing_key(self, store):
        assert store.execute("ZRANGEBYSCORE", "z", "-inf", "+inf") == []

    def test_zrangebyscore_bad_limit(self, store):
        store.execute("ZADD", "z", "1", "a")
        with pytest.raises(RespError):
            store.execute("ZRANGEBYSCORE", "z", "0", "1", "LIMIT", 0)

    def test_zadd_bad_score(self, store):
        with pytest.raises(RespError):
            store.execute("ZADD", "z", "not-a-float", "a")

    def test_zscore_missing(self, store):
        store.execute("ZADD", "z", "1", "a")
        assert store.execute("ZRANGEBYSCORE", "z", "-inf", "+inf") == [b"a"]
        assert store.execute("ZRANGEBYSCORE", "ghost", "-inf", "+inf") == []

    def test_same_score_orders_by_member(self, store):
        store.execute("ZADD", "z", "1", "bb", "1", "aa")
        assert store.execute("ZRANGEBYSCORE", "z", "1", "1") == \
            [b"aa", b"bb"]
