"""DUMP/RESTORE: the serialized key-transfer primitive slot migration
ships between shards."""

import pytest

from repro.common.clock import SimClock
from repro.common.resp import RespError, SimpleString
from repro.kvstore import KeyValueStore, StoreConfig
from repro.kvstore.snapshot import dump_value, load_value


def fresh(appendonly=False):
    return KeyValueStore(StoreConfig(appendonly=appendonly))


class TestDumpPayload:
    def test_value_round_trip_all_types(self):
        store = fresh()
        store.execute("SET", "s", "hello")
        store.execute("HSET", "h", "f1", "a", "f2", "b")
        store.execute("ZADD", "z", 1.5, "one", 2.5, "two")
        for key in ("s", "h", "z"):
            payload = store.execute("DUMP", key)
            db = store.databases[0]
            assert load_value(payload) == db.get_value(key.encode()) \
                or key == "z"   # ZSet has no __eq__; compare items
        zset = load_value(store.execute("DUMP", "z"))
        assert list(zset.items()) == [(b"one", 1.5), (b"two", 2.5)]

    def test_dump_missing_key_is_nil(self):
        assert fresh().execute("DUMP", "nope") is None

    def test_corrupt_payload_rejected(self):
        store = fresh()
        store.execute("SET", "k", "v")
        payload = store.execute("DUMP", "k")
        mangled = payload[:-1] + bytes([payload[-1] ^ 0xFF])
        with pytest.raises(RespError, match="checksum"):
            store.execute("RESTORE", "k2", 0, mangled)

    def test_dump_value_detects_truncation(self):
        payload = dump_value(b"data")
        from repro.common.errors import CorruptionError
        with pytest.raises(CorruptionError):
            load_value(payload[:-2])


class TestRestore:
    def test_restore_materializes_on_another_store(self):
        a, b = fresh(), fresh()
        a.execute("HSET", "h", "f", "v")
        payload = a.execute("DUMP", "h")
        assert b.execute("RESTORE", "h", 0, payload) == SimpleString("OK")
        assert b.execute("HGET", "h", "f") == b"v"

    def test_busykey_without_replace(self):
        store = fresh()
        store.execute("SET", "k", "old")
        payload = store.execute("DUMP", "k")
        with pytest.raises(RespError, match="BUSYKEY"):
            store.execute("RESTORE", "k", 0, payload)
        store.execute("RESTORE", "k", 0, payload, "REPLACE")
        assert store.execute("GET", "k") == b"old"

    def test_ttl_applied_relative_to_receiver(self):
        store = fresh()
        store.execute("SET", "k", "v")
        payload = store.execute("DUMP", "k")
        store.execute("RESTORE", "k2", 2500, payload)
        assert 0 < store.execute("PTTL", "k2") <= 2500
        store.execute("RESTORE", "k3", 0, payload)
        assert store.execute("PTTL", "k3") == -1

    def test_negative_ttl_rejected(self):
        store = fresh()
        store.execute("SET", "k", "v")
        payload = store.execute("DUMP", "k")
        with pytest.raises(RespError, match="TTL"):
            store.execute("RESTORE", "k2", -5, payload)

    def test_restore_ttl_replayed_as_absolute_deadline(self):
        """The AOF must carry PEXPIREAT, not the relative TTL, so a
        replay later does not extend the key's life."""
        clock = SimClock()
        store = KeyValueStore(StoreConfig(appendonly=True), clock=clock)
        store.execute("SET", "k", "v")
        payload = store.execute("DUMP", "k")
        store.execute("RESTORE", "k2", 5000, payload)
        deadline = store.databases[0].get_expiry(b"k2")
        data = store.aof_log.read_all()
        replayed = KeyValueStore(StoreConfig(), clock=SimClock(clock.now()))
        replayed.replay_aof(data)
        assert replayed.databases[0].get_expiry(b"k2") == \
            pytest.approx(deadline)
