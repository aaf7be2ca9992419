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
from repro.cluster import (
    GDPRClient, SlotMigrator, build_cluster, gdpr_shards)
from repro.cluster.slots import slot_for_key
from repro.kvstore import KeyValueStore, StoreConfig
from repro.sqlstore import RelationalStore, SqlConfig


def make_fast_store(clock=None, fsync="everysec", **overrides):
    clock = clock if clock is not None else SimClock()
    kv = KeyValueStore(StoreConfig(appendonly=True, aof_log_reads=True,
                                   appendfsync=fsync,
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


def make_fast_sql_store(clock=None, fsync="everysec"):
    clock = clock if clock is not None else SimClock()
    kv = RelationalStore(SqlConfig(wal_enabled=True, wal_fsync=fsync),
                         clock=clock)
    config = GDPRConfig(fast_gdpr=True, audit_block_size=4,
                        writebehind_interval=0.5)
    return GDPRStore(kv=kv, config=config), clock


FAST_STORES = {"redislike": make_fast_store,
               "relational": make_fast_sql_store}


@pytest.mark.parametrize("engine", sorted(FAST_STORES))
def test_fused_set_writes_one_aof_record(engine):
    store, _ = FAST_STORES[engine]()
    before = store.kv.aof_log.appends
    store.put("k", b"v", meta(ttl=100.0))
    assert store.kv.aof_log.appends == before + 1


@pytest.mark.parametrize("engine", sorted(FAST_STORES))
def test_retention_deadline_survives_a_crash_before_the_flush(engine):
    """Regression: on the relational engine the deadline used to wait in
    the write-behind set for the flush, so a power loss before it left a
    WAL whose replayed row never expired."""
    store, clock = FAST_STORES[engine](fsync="always")
    store.put("k", b"v", meta(ttl=100.0))
    assert store._writebehind.pending == 1
    store.kv.aof_log.crash(power_loss=True)
    store.audit.log.crash(power_loss=True)
    recovered = type(store.kv)(clock=clock)
    recovered.replay_aof(store.kv.aof_log.read_durable())
    assert recovered.execute("PTTL", "k") > 0


class TestFastPathRelational:
    def test_ttl_applied_inline_via_fused_set(self):
        # The relational SET takes PXAT too: the deadline lands in the
        # same statement as the value, nothing waits on the flush.
        store, _ = make_fast_sql_store()
        store.put("k", b"v", meta(ttl=100.0))
        assert store._writebehind.pending == 1
        assert store.kv.execute("PTTL", "k") > 0

    def test_native_owner_index_current_after_flush(self):
        store, _ = make_fast_sql_store()
        store.put("k1", b"v", meta())
        # keys_of_subject flushes the write-behind set first, so the
        # engine's owner column answers correctly.
        assert store.keys_of_subject("alice") == ["k1"]

    @pytest.mark.parametrize("pending", [1, 16])
    def test_flush_is_one_statement_and_one_wal_record(self, pending):
        store, _ = make_fast_sql_store()
        for i in range(pending):
            store.put(f"k{i}", b"v", meta(ttl=100.0))
        statements = store.kv.stats.commands_processed
        records = store.kv.aof.records_written
        assert store._writebehind.flush() == pending
        assert store.kv.stats.commands_processed == statements + 1
        assert store.kv.aof.records_written == records + 1
        assert store.kv.keys_of_owner("alice") == sorted(
            f"k{i}" for i in range(pending))

    def test_empty_flush_runs_no_statement(self):
        store, _ = make_fast_sql_store()
        statements = store.kv.stats.commands_processed
        records = store.kv.aof.records_written
        assert store._writebehind.flush() == 0
        assert store.kv.stats.commands_processed == statements
        assert store.kv.aof.records_written == records


class TestShardedFastGDPR:
    def test_fast_knob_propagates(self):
        store = GDPRClient(build_cluster(
            2, store_factory=gdpr_shards(fast_gdpr=True)))
        for shard in store.shards:
            assert shard.config.fast_gdpr
            assert shard.audit.chain_mode is AuditChainMode.BLOCK

    def test_verify_audit_chains_block_mode(self):
        cluster = build_cluster(2, store_factory=gdpr_shards(fast_gdpr=True))
        store = GDPRClient(cluster)
        for i in range(10):
            store.put(f"k{i}", b"v", meta(owner=f"s{i % 3}"))
        cluster.flush_compliance()
        verified = cluster.verify_audit_chains()
        assert sum(verified.values()) >= 10

    def test_flush_during_migration_requeues_every_annotated_key(self):
        def sql_factory(index, kv_clock):
            return RelationalStore(SqlConfig(wal_enabled=True),
                                   clock=kv_clock)

        cluster = build_cluster(2, store_factory=gdpr_shards(
            fast_gdpr=True, kv_factory=sql_factory))
        store = GDPRClient(cluster)
        keys = ["a{t}", "b{t}"]
        slot = slot_for_key(keys[0])
        source = cluster.slots.shard_of_slot(slot)
        target = 1 - source
        for key in keys:
            store.put(key, b"v", meta())
        migrator = SlotMigrator(cluster, slot, target)
        assert migrator.step(2) == 2
        # One GDPRMETA names both keys: the migrator sees each of them.
        store.shards[source].flush_compliance()
        assert migrator.keys_pending == 2
        migrator.finish()
        assert store.shards[target].kv.keys_of_owner("alice") == keys


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
