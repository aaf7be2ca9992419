"""Tests for the fast-GDPR mode: fused SET-with-expiry, write-behind
compliance maintenance, block-sealed audit wiring, and same-seed
determinism."""

import pytest

from repro.common.clock import SimClock
from repro.gdpr import (
    AuditChainMode,
    GDPRConfig,
    GDPRMetadata,
    GDPRStore,
)
from repro.cluster import ShardedGDPRStore
from repro.kvstore import KeyValueStore, StoreConfig
from repro.sqlstore import RelationalStore, SqlConfig


def make_fast_store(clock=None, **overrides):
    clock = clock if clock is not None else SimClock()
    kv = KeyValueStore(StoreConfig(appendonly=True, aof_log_reads=True,
                                   expiry_strategy="fullscan"),
                       clock=clock)
    config = GDPRConfig(fast_gdpr=True, audit_block_size=4,
                        writebehind_interval=0.5, **overrides)
    return GDPRStore(kv=kv, config=config), clock


def meta(owner="alice", purposes=("billing",), **kwargs):
    return GDPRMetadata(owner=owner, purposes=frozenset(purposes),
                        **kwargs)


class TestFastPath:
    def test_roundtrip(self):
        store, _ = make_fast_store()
        store.put("k", b"value", meta())
        record = store.get("k", purpose="billing")
        assert record.value == b"value"
        assert record.metadata.owner == "alice"

    def test_audit_runs_in_block_mode(self):
        store, _ = make_fast_store()
        assert store.audit.chain_mode is AuditChainMode.BLOCK

    def test_ttl_applied_inline_via_fused_set(self):
        # The KV engine speaks SET..PXAT: the deadline lands in the same
        # command as the value, nothing waits on the write-behind flush.
        store, _ = make_fast_store()
        store.put("k", b"v", meta(ttl=100.0))
        assert store._writebehind.pending == 1
        assert store.kv.execute("PTTL", "k") > 0

    def test_fused_set_expires(self):
        store, clock = make_fast_store()
        store.put("k", b"v", meta(ttl=10.0))
        clock.advance(11.0)
        store.tick()
        with pytest.raises(KeyError):
            store.get("k")

    def test_fused_set_writes_one_aof_record(self):
        store, _ = make_fast_store()
        before = store.kv.aof_log.appends
        store.put("k", b"v", meta(ttl=100.0))
        assert store.kv.aof_log.appends == before + 1

    def test_writebehind_flushes_on_timer(self):
        store, clock = make_fast_store()
        store.put("k", b"v", meta(ttl=100.0))
        assert store._writebehind.pending == 1
        clock.run_until_idle(deadline=2.0)
        assert store._writebehind.pending == 0
        assert store.locations.locations_of("k")

    def test_delete_before_flush_discards_pending(self):
        store, _ = make_fast_store()
        store.put("k", b"v", meta(ttl=100.0))
        store.delete("k")
        assert store._writebehind.pending == 0
        store._writebehind.flush()      # nothing to resurrect
        assert store.kv.execute("EXISTS", "k") == 0

    def test_rewrite_coalesces(self):
        store, _ = make_fast_store()
        for i in range(5):
            store.put("hot", str(i).encode(), meta(ttl=100.0))
        assert store._writebehind.pending == 1
        assert store._writebehind.coalesced == 4

    def test_keys_of_subject_sees_unflushed_writes(self):
        store, _ = make_fast_store()
        store.put("k1", b"v", meta())
        store.put("k2", b"v", meta())
        assert store.keys_of_subject("alice") == ["k1", "k2"]

    def test_flush_compliance_closes_window(self):
        store, _ = make_fast_store()
        for i in range(3):
            store.put(f"k{i}", b"v", meta(ttl=100.0))
        assert store.audit.at_risk_records() > 0
        store.flush_compliance()
        assert store._writebehind.pending == 0
        assert store.audit.at_risk_records() == 0
        assert store.audit.verify_durable() == store.audit.record_count

    def test_erasure_still_works(self):
        from repro.gdpr.rights import right_to_erasure
        store, _ = make_fast_store()
        store.put("k1", b"v", meta())
        store.put("k2", b"v", meta(owner="bob"))
        receipt = right_to_erasure(store, "alice")
        assert receipt.keys_erased == ["k1"]
        with pytest.raises(KeyError):
            store.get("k1")
        assert store.get("k2").value == b"v"


class TestFastPathRelational:
    def make_store(self):
        clock = SimClock()
        kv = RelationalStore(SqlConfig(wal_enabled=True), clock=clock)
        config = GDPRConfig(fast_gdpr=True, audit_block_size=4,
                            writebehind_interval=0.5)
        return GDPRStore(kv=kv, config=config), clock

    def test_ttl_deferred_until_flush(self):
        # No fused SET on the relational engine: the deadline arrives
        # with the write-behind flush, bounded by the interval.
        store, _ = self.make_store()
        store.put("k", b"v", meta(ttl=100.0))
        store._writebehind.flush()
        assert store.kv.execute("PTTL", "k") > 0

    def test_native_owner_index_current_after_flush(self):
        store, _ = self.make_store()
        store.put("k1", b"v", meta())
        # keys_of_subject flushes the write-behind set first, so the
        # engine's owner column answers correctly.
        assert store.keys_of_subject("alice") == ["k1"]


class TestShardedFastGDPR:
    def test_fast_knob_propagates(self):
        cluster = ShardedGDPRStore(num_shards=2, fast_gdpr=True)
        for shard in cluster.shards:
            assert shard.config.fast_gdpr
            assert shard.audit.chain_mode is AuditChainMode.BLOCK

    def test_verify_audit_chains_block_mode(self):
        cluster = ShardedGDPRStore(num_shards=2, fast_gdpr=True)
        for i in range(10):
            cluster.put(f"k{i}", b"v", meta(owner=f"s{i % 3}"))
        cluster.flush_compliance()
        verified = cluster.verify_audit_chains()
        assert sum(verified.values()) >= 10


class TestDeterminism:
    def _run_once(self):
        store, clock = make_fast_store()
        for i in range(20):
            store.put(f"k{i}", b"v" * 10, meta(owner=f"s{i % 4}",
                                               ttl=100.0))
            if i % 3 == 0:
                store.get(f"k{i}")
        clock.run_until_idle(deadline=5.0)
        store.flush_compliance()
        return store.audit.log.read_all(), clock.now()

    def test_same_seed_runs_byte_identical(self):
        bytes_a, now_a = self._run_once()
        bytes_b, now_b = self._run_once()
        assert bytes_a == bytes_b
        assert now_a == now_b

    def test_backend_cell_reruns_identical(self):
        from repro.bench.backends import run_backend_cell
        a = run_backend_cell("redislike", "fast-gdpr", 40, 100)
        b = run_backend_cell("redislike", "fast-gdpr", 40, 100)
        assert a == b
