"""Tests for RDB-style snapshots."""

import hashlib
import random

import pytest

from repro.common.clock import SimClock
from repro.common.errors import CorruptionError
from repro.common.hashing import crc32_of
from repro.kvstore import KeyValueStore
from repro.engine.base import StoredRecord
from repro.kvstore.snapshot import dump, load
from tests.support import assert_refused


@pytest.fixture
def store():
    return KeyValueStore(clock=SimClock())


def seeded_store(seed=29):
    """Every value type, relative and absolute TTLs, two databases."""
    rng = random.Random(seed)
    store = KeyValueStore(clock=SimClock())
    store.clock.advance(12.3456789)
    for index in (0, 7):
        session = store.session(index)

        def run(*args):
            return store.execute(*args, session=session)

        for number in range(6):
            run("SET", f"s{number}", rng.randbytes(rng.randint(0, 40)))
        run("HSET", "h", *[rng.randbytes(5) for _ in range(8)])
        run("ZADD", "z", *[item for _ in range(4) for item in
                           (repr(rng.uniform(-5, 5)), rng.randbytes(3))])
        run("EXPIRE", "s1", 300)
        run("PEXPIRE", "h", 4567)
        run("PEXPIREAT", "s2", 99_000_123)
        run("SET", "s3", "ttl", "EX", 60)
    return store


#: sha256 of ``seeded_store().save_snapshot()``: a Redis-like snapshot
#: keeps its bytes.  Recorded before every engine moved onto this
#: format, and re-recorded when the list and set types were retired
#: (the encoder before that change gives the same digest).
SEEDED_SNAPSHOT_SHA256 = \
    "c35b4a1c5c55f8d0528d8596ff05dffe7916685e0d8324dc4e34493f8994fa09"


def test_redislike_snapshot_bytes_are_pinned():
    data = seeded_store().save_snapshot()
    assert hashlib.sha256(data).hexdigest() == SEEDED_SNAPSHOT_SHA256


class TestRoundtrip:
    def test_all_types_roundtrip(self, store):
        store.execute("SET", "s", "value")
        store.execute("HSET", "h", "f1", "v1", "f2", "v2")
        store.execute("ZADD", "z", "1.5", "m1", "2.5", "m2")
        data = store.save_snapshot()
        fresh = KeyValueStore()
        assert fresh.load_snapshot(data) == 3
        assert fresh.execute("GET", "s") == b"value"
        assert fresh.execute("HGET", "h", "f2") == b"v2"
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

    @pytest.mark.parametrize("code", [2, 3, 5])
    def test_unknown_value_type_code_rejected(self, store, code):
        # 2 and 3 were the retired list and set types.
        store.execute("SET", "k", "v")
        data = bytearray(store.save_snapshot()[:-4])
        code_at = len(b"REPRODB1") + 16 + 4 + len(b"k") + 1
        assert data[code_at] == 0
        data[code_at] = code
        body = bytes(data)
        with pytest.raises(CorruptionError, match="type code"):
            load(body + crc32_of(body).to_bytes(4, "big"))

    def test_unknown_record_flags_rejected(self, store):
        store.execute("SET", "k", "v")
        data = bytearray(store.save_snapshot()[:-4])
        flags_at = len(b"REPRODB1") + 16 + 4 + len(b"k")
        assert data[flags_at] == 0
        data[flags_at] = 4
        body = bytes(data)
        with pytest.raises(CorruptionError, match="flags"):
            load(body + crc32_of(body).to_bytes(4, "big"))

    def test_database_the_store_lacks_rejected_untouched(self, store):
        """Regression: the load flushed every database and then raised
        a bare IndexError on a database index past the store's count,
        leaving the target empty."""
        # Every store has DATABASES (16), so only a foreign snapshot
        # names database 16.
        store.execute("SET", "keep", "x")
        with pytest.raises(CorruptionError, match="database"):
            store.load_snapshot(dump({16: [StoredRecord(b"k16", b"v", None)]}))
        assert store.execute("KEYS", "*") == [b"keep"]


def test_metadata_columns_round_trip_under_their_flag():
    records = [StoredRecord(b"plain", b"v", None),
               StoredRecord(b"owned", {b"f": b"x"}, 1.25,
                            ("alice", "ads,billing"))]
    assert load(dump({0: records})) == {0: records}
    # The Redis-like layout is the metadata-free one, byte for byte.
    assert dump({0: records[:1]}) == dump({0: [(b"plain", b"v", None,
                                                None)]})


def _snapshot_keys(data):
    return {record.key for records in load(data).values()
            for record in records}


class TestMentions:
    def test_snapshot_mentions_deleted_key_until_redump(self, store):
        # The section 4.3 concern applied to snapshots.
        store.execute("SET", "doomed", "pii")
        first = store.save_snapshot()
        store.execute("DEL", "doomed")
        assert b"doomed" in _snapshot_keys(first)
        second = store.save_snapshot()
        assert b"doomed" not in _snapshot_keys(second)

    def test_save_records_timestamp(self, store):
        store.clock.advance(10)
        store.save_snapshot()
        assert store.last_snapshot_at == pytest.approx(10.0)

    def test_save_command(self, store):
        # SAVE and BGSAVE are not commands: save_snapshot() is the entry.
        store.execute("SET", "k", "v")
        assert_refused(store, "SAVE")
        assert_refused(store, "BGSAVE")
        assert store.last_snapshot is None
        store.save_snapshot()
        assert b"k" in _snapshot_keys(store.last_snapshot)
