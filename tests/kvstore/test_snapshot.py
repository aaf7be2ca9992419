"""Tests for RDB-style snapshots."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import CorruptionError
from repro.common.hashing import crc32_of
from repro.kvstore import KeyValueStore, StoreConfig, snapshot_mentions_key
from repro.kvstore.snapshot import dump, load


@pytest.fixture
def store():
    return KeyValueStore(clock=SimClock())


class TestRoundtrip:
    def test_all_types_roundtrip(self, store):
        store.execute("SET", "s", "value")
        store.execute("HSET", "h", "f1", "v1", "f2", "v2")
        store.execute("RPUSH", "l", "a", "b", "c")
        store.execute("SADD", "set", "x", "y")
        store.execute("ZADD", "z", "1.5", "m1", "2.5", "m2")
        data = store.save_snapshot()
        fresh = KeyValueStore()
        assert fresh.load_snapshot(data) == 5
        assert fresh.execute("GET", "s") == b"value"
        assert fresh.execute("HGET", "h", "f2") == b"v2"
        assert fresh.execute("LRANGE", "l", 0, -1) == [b"a", b"b", b"c"]
        assert fresh.execute("SMEMBERS", "set") == [b"x", b"y"]
        assert fresh.execute("ZRANGEBYSCORE", "z", "-inf", "+inf") == \
            [b"m1", b"m2"]

    def test_expiry_preserved(self, store):
        store.execute("SET", "k", "v", "EX", 100)
        data = store.save_snapshot()
        fresh = KeyValueStore(clock=store.clock)
        fresh.load_snapshot(data)
        assert 99 <= fresh.execute("TTL", "k") <= 100

    def test_multiple_databases(self, store):
        session = store.session()
        store.execute("SET", "k0", "v0", session=session)
        store.execute("SELECT", 3, session=session)
        store.execute("SET", "k3", "v3", session=session)
        data = store.save_snapshot()
        fresh = KeyValueStore()
        fresh.load_snapshot(data)
        s = fresh.session()
        assert fresh.execute("GET", "k0", session=s) == b"v0"
        fresh.execute("SELECT", 3, session=s)
        assert fresh.execute("GET", "k3", session=s) == b"v3"

    def test_empty_store(self, store):
        data = store.save_snapshot()
        fresh = KeyValueStore()
        assert fresh.load_snapshot(data) == 0

    def test_load_replaces_existing_state(self, store):
        store.execute("SET", "k", "v")
        data = store.save_snapshot()
        fresh = KeyValueStore()
        fresh.execute("SET", "stale", "x")
        fresh.load_snapshot(data)
        assert fresh.execute("GET", "stale") is None
        assert fresh.execute("GET", "k") == b"v"

    def test_binary_payloads(self, store):
        payload = bytes(range(256))
        store.execute("SET", b"\x00key", payload)
        fresh = KeyValueStore()
        fresh.load_snapshot(store.save_snapshot())
        assert fresh.execute("GET", b"\x00key") == payload


class TestIntegrity:
    def test_crc_detects_flip(self, store):
        store.execute("SET", "k", "v")
        data = bytearray(store.save_snapshot())
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(CorruptionError):
            load(bytes(data))

    def test_truncation_detected(self, store):
        store.execute("SET", "k", "v")
        data = store.save_snapshot()
        with pytest.raises(CorruptionError):
            load(data[:-5])

    def test_bad_magic(self):
        with pytest.raises(CorruptionError):
            load(b"NOTADB00" + b"\x00" * 20)

    def test_too_small(self):
        with pytest.raises(CorruptionError):
            load(b"tiny")

    def test_trailing_bytes_under_a_recomputed_crc_rejected(self, store):
        """Regression: bytes after the declared records were ignored
        when the CRC had been recomputed over them."""
        store.execute("SET", "k", "v")
        body = store.save_snapshot()[:-4] + b"junk"
        padded = body + crc32_of(body).to_bytes(4, "big")
        with pytest.raises(CorruptionError, match="trailing"):
            load(padded)
        fresh = KeyValueStore()
        fresh.execute("SET", "keep", "x")
        with pytest.raises(CorruptionError):
            fresh.load_snapshot(padded)
        assert fresh.execute("KEYS", "*") == [b"keep"]


class TestMentions:
    def test_snapshot_mentions_deleted_key_until_redump(self, store):
        # The section 4.3 concern applied to snapshots.
        store.execute("SET", "doomed", "pii")
        first = store.save_snapshot()
        store.execute("DEL", "doomed")
        assert snapshot_mentions_key(first, b"doomed")
        second = store.save_snapshot()
        assert not snapshot_mentions_key(second, b"doomed")

    def test_save_records_timestamp(self, store):
        store.clock.advance(10)
        store.save_snapshot()
        assert store.last_snapshot_at == pytest.approx(10.0)

    def test_save_command(self, store):
        store.execute("SET", "k", "v")
        store.execute("SAVE")
        assert store.last_snapshot is not None
        assert snapshot_mentions_key(store.last_snapshot, b"k")
