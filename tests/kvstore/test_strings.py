"""Tests for string commands."""

import pytest

from repro.common.errors import ArityError, UnknownCommandError, WrongTypeError
from repro.common.resp import RespError, SimpleString, encode_command
from repro.kvstore import KeyValueStore
from tests.support import assert_refused


@pytest.fixture
def store():
    return KeyValueStore()


class TestGetSet:
    def test_set_returns_ok(self, store):
        assert store.execute("SET", "k", "v") == SimpleString("OK")

    def test_get_returns_bytes(self, store):
        store.execute("SET", "k", "v")
        assert store.execute("GET", "k") == b"v"

    def test_get_missing_returns_none(self, store):
        assert store.execute("GET", "nope") is None

    def test_set_overwrites(self, store):
        store.execute("SET", "k", "v1")
        store.execute("SET", "k", "v2")
        assert store.execute("GET", "k") == b"v2"

    def test_binary_values(self, store):
        payload = bytes(range(256))
        store.execute("SET", b"k", payload)
        assert store.execute("GET", "k") == payload

    def test_set_ex_sets_ttl(self, store):
        store.execute("SET", "k", "v", "EX", 100)
        assert store.execute("TTL", "k") == 100

    def test_set_px_sets_ttl(self, store):
        store.execute("SET", "k", "v", "PX", 5000)
        assert store.execute("TTL", "k") == 5

    def test_set_nx_on_missing(self, store):
        assert store.execute("SET", "k", "v", "NX") == SimpleString("OK")

    def test_set_nx_on_existing(self, store):
        store.execute("SET", "k", "v1")
        assert store.execute("SET", "k", "v2", "NX") is None
        assert store.execute("GET", "k") == b"v1"

    def test_set_xx_on_missing(self, store):
        assert store.execute("SET", "k", "v", "XX") is None

    def test_set_xx_on_existing(self, store):
        store.execute("SET", "k", "v1")
        assert store.execute("SET", "k", "v2", "XX") == SimpleString("OK")

    def test_set_clears_previous_ttl(self, store):
        store.execute("SET", "k", "v", "EX", 100)
        store.execute("SET", "k", "v2")
        assert store.execute("TTL", "k") == -1

    def test_set_nx_xx_conflict(self, store):
        with pytest.raises(RespError):
            store.execute("SET", "k", "v", "NX", "XX")

    def test_set_bad_option(self, store):
        with pytest.raises(RespError):
            store.execute("SET", "k", "v", "BOGUS")

    def test_set_nonpositive_expire(self, store):
        with pytest.raises(RespError):
            store.execute("SET", "k", "v", "EX", 0)

    def test_get_wrong_type(self, store):
        store.execute("HSET", "h", "f", "v")
        with pytest.raises(WrongTypeError):
            store.execute("GET", "h")


class TestSetVariants:
    # SETNX, SETEX, PSETEX, GETSET, STRLEN, DECR, INCRBY, DECRBY, MGET
    # and MSET are not served: SET's NX/EX/PX options spell the first
    # three, and the rest had no caller.
    def test_setnx(self, store):
        assert_refused(store, "SETNX", "k", "v")
        assert store.execute("SET", "k", "v", "NX") == SimpleString("OK")

    def test_setex(self, store):
        assert_refused(store, "SETEX", "k", 60, "v")
        store.execute("SET", "k", "v", "EX", 60)
        assert store.execute("TTL", "k") == 60

    def test_setex_rejects_bad_ttl(self, store):
        assert_refused(store, "SETEX", "k", 0, "v")
        with pytest.raises(RespError):
            store.execute("SET", "k", "v", "EX", -5)

    def test_psetex(self, store):
        assert_refused(store, "PSETEX", "k", 1500, "v")
        store.execute("SET", "k", "v", "PX", 1500)
        assert store.execute("PTTL", "k") == 1500

    def test_getset(self, store):
        store.execute("SET", "k", "v1")
        assert_refused(store, "GETSET", "k", "v2")

    def test_append_creates(self, store):
        assert store.execute("APPEND", "k", "ab") == 2
        assert store.execute("APPEND", "k", "cd") == 4
        assert store.execute("GET", "k") == b"abcd"

    def test_strlen(self, store):
        store.execute("SET", "k", "hello")
        assert_refused(store, "STRLEN", "k")


class TestCounters:
    def test_incr_from_missing(self, store):
        assert store.execute("INCR", "n") == 1
        assert store.execute("INCR", "n") == 2

    def test_decr(self, store):
        assert_refused(store, "DECR", "n")

    def test_incrby_decrby(self, store):
        assert_refused(store, "INCRBY", "n", 10)
        assert_refused(store, "DECRBY", "n", 3)

    def test_incr_non_integer_value(self, store):
        store.execute("SET", "n", "abc")
        with pytest.raises(RespError):
            store.execute("INCR", "n")

    def test_incrby_non_integer_delta(self, store):
        assert_refused(store, "INCRBY", "n", "abc")

    def test_incr_stores_string(self, store):
        store.execute("INCR", "n")
        assert store.execute("GET", "n") == b"1"


class TestMulti:
    def test_mset_mget(self, store):
        assert_refused(store, "MSET", "a", "1", "b", "2")
        assert_refused(store, "MGET", "a", "b", "c")

    def test_mset_odd_args(self, store):
        assert_refused(store, "MSET", "a", "1", "b")

    def test_mget_skips_wrong_type(self, store):
        store.execute("HSET", "h", "f", "v")
        store.execute("SET", "s", "x")
        assert_refused(store, "MGET", "h", "s")


class TestDispatch:
    def test_unknown_command(self, store):
        with pytest.raises(UnknownCommandError):
            store.execute("FROBNICATE", "k")

    def test_arity_exact(self, store):
        with pytest.raises(ArityError):
            store.execute("GET")
        with pytest.raises(ArityError):
            store.execute("GET", "a", "b")

    def test_arity_minimum(self, store):
        with pytest.raises(ArityError):
            store.execute("SET", "k")

    def test_case_insensitive_names(self, store):
        store.execute("set", "k", "v")
        assert store.execute("GeT", "k") == b"v"

    def test_int_arguments_coerced(self, store):
        store.execute("SET", "k", 123)
        assert store.execute("GET", "k") == b"123"

    def test_commands_counted(self, store):
        store.execute("SET", "k", "v")
        store.execute("GET", "k")
        assert store.stats.commands_processed == 2


class TestSetAbsoluteExpiry:
    def test_set_pxat_sets_deadline(self, store):
        store.execute("SET", "k", "v", "PXAT", 100_000)
        assert 99 <= store.execute("TTL", "k") <= 100

    def test_set_exat_sets_deadline(self, store):
        store.execute("SET", "k", "v", "EXAT", 500)
        assert 499 <= store.execute("TTL", "k") <= 500

    def test_pxat_in_past_rejected(self, store):
        with pytest.raises(RespError):
            store.execute("SET", "k", "v", "PXAT", 0)

    def test_pxat_fuses_to_one_aof_record(self):
        from repro.kvstore import StoreConfig
        store = KeyValueStore(StoreConfig(appendonly=True))
        store.execute("SET", "k", "v", "PXAT", 100_000)
        assert store.aof_log.appends == 1

    def test_relative_expiry_is_one_record(self):
        from repro.kvstore import StoreConfig
        store = KeyValueStore(StoreConfig(appendonly=True))
        store.execute("SET", "k", "v", "EX", 100)
        assert store.aof_log.appends == 1
        assert store.aof_log.read_all() == encode_command(
            b"SET", b"k", b"v", b"PXAT", b"100000")

    def test_fused_record_replays_deadline(self):
        from repro.kvstore import StoreConfig
        store = KeyValueStore(StoreConfig(appendonly=True))
        store.execute("SET", "k", "v", "PXAT", 100_000)
        replica = KeyValueStore(StoreConfig(appendonly=True))
        replica.replay_aof(store.aof_log.read_all())
        assert replica.execute("GET", "k") == b"v"
        assert 99 <= replica.execute("TTL", "k") <= 100
