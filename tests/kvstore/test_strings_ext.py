"""The range and float commands the store no longer serves.

GETRANGE, SETRANGE, INCRBYFLOAT, HINCRBY and HSTRLEN were issued by no
workload, bench, example or GDPR path, so they were removed with their
handlers.  Each test keeps the set-up of the behaviour it used to check
and asserts that the command is now refused with the keyspace untouched.
"""

import pytest

from repro.common.errors import UnknownCommandError
from repro.common.resp import encode_command
from repro.kvstore import KeyValueStore, StoreConfig
from tests.support import assert_refused


@pytest.fixture
def store():
    return KeyValueStore()


class TestGetRange:
    def test_basic_slice(self, store):
        store.execute("SET", "k", "Hello World")
        assert_refused(store, "GETRANGE", "k", 0, 4)

    def test_negative_indexes(self, store):
        store.execute("SET", "k", "Hello World")
        assert_refused(store, "GETRANGE", "k", -5, -1)

    def test_full_string(self, store):
        store.execute("SET", "k", "abc")
        assert_refused(store, "GETRANGE", "k", 0, -1)

    def test_missing_key(self, store):
        assert_refused(store, "GETRANGE", "nope", 0, 10)

    def test_inverted_range(self, store):
        store.execute("SET", "k", "abc")
        assert_refused(store, "GETRANGE", "k", 2, 1)

    def test_out_of_bounds_clamped(self, store):
        store.execute("SET", "k", "abc")
        assert_refused(store, "GETRANGE", "k", 0, 100)


class TestSetRange:
    def test_overwrite_middle(self, store):
        store.execute("SET", "k", "Hello World")
        assert_refused(store, "SETRANGE", "k", 6, "Redis")
        assert store.execute("GET", "k") == b"Hello World"

    def test_zero_pad_on_gap(self, store):
        assert_refused(store, "SETRANGE", "k", 5, "x")
        assert store.execute("EXISTS", "k") == 0

    def test_extend_beyond_end(self, store):
        store.execute("SET", "k", "ab")
        assert_refused(store, "SETRANGE", "k", 2, "cd")

    def test_negative_offset_rejected(self, store):
        assert_refused(store, "SETRANGE", "k", -1, "x")

    def test_wrong_type(self, store):
        store.execute("HSET", "h", "f", "v")
        assert_refused(store, "SETRANGE", "h", 0, "x")


class TestIncrByFloat:
    def test_from_missing(self, store):
        assert_refused(store, "INCRBYFLOAT", "k", "1.5")
        assert store.execute("EXISTS", "k") == 0

    def test_accumulates(self, store):
        store.execute("SET", "k", "10.5")
        assert_refused(store, "INCRBYFLOAT", "k", "0.1")
        assert store.execute("GET", "k") == b"10.5"

    def test_negative_delta(self, store):
        store.execute("SET", "k", "5")
        assert_refused(store, "INCRBYFLOAT", "k", "-2.5")

    def test_integral_result_trims_point(self, store):
        store.execute("SET", "k", "1.5")
        assert_refused(store, "INCRBYFLOAT", "k", "0.5")

    def test_non_float_value(self, store):
        store.execute("SET", "k", "abc")
        assert_refused(store, "INCRBYFLOAT", "k", "1")

    def test_non_float_delta(self, store):
        assert_refused(store, "INCRBYFLOAT", "k", "xyz")


class TestHashExtensions:
    def test_hincrby_from_missing(self, store):
        assert_refused(store, "HINCRBY", "h", "n", 5)
        assert store.execute("EXISTS", "h") == 0

    def test_hincrby_existing_field(self, store):
        store.execute("HSET", "h", "n", "10")
        assert_refused(store, "HINCRBY", "h", "n", 7)
        assert store.execute("HGET", "h", "n") == b"10"

    def test_hincrby_non_integer(self, store):
        store.execute("HSET", "h", "n", "abc")
        assert_refused(store, "HINCRBY", "h", "n", 1)

    def test_hstrlen(self, store):
        store.execute("HSET", "h", "f", "hello")
        assert_refused(store, "HSTRLEN", "h", "f")


class TestPersistenceOfExtensions:
    def test_extended_commands_replay(self, store):
        # A log naming a removed command does not replay past it: the
        # record is refused, not skipped.
        log = (encode_command(b"SET", b"s", b"base")
               + encode_command(b"SETRANGE", b"s", b"0", b"X"))
        replica = KeyValueStore(StoreConfig(appendonly=True))
        with pytest.raises(UnknownCommandError, match="SETRANGE"):
            replica.replay_aof(log)
        assert replica.execute("GET", "s") == b"base"
