"""GDPR semantics over a tiered engine: audited tier moves, tier-aware
access reports, archive-reaching erasure receipts, and the sharded
cluster running every shard tiered."""

import pytest

from repro.common.clock import SimClock
from repro.cluster import GDPRClient, build_cluster, gdpr_shards
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import right_of_access, right_to_erasure
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieredEngine, TieringConfig


def make_store(base="redislike", fast_gdpr=False):
    clock = SimClock()
    if base == "redislike":
        inner = KeyValueStore(StoreConfig(appendonly=True), clock=clock)
    else:
        inner = RelationalStore(SqlConfig(wal_enabled=True), clock=clock)
    engine = TieredEngine(inner, tiering=TieringConfig(
        demote_idle_after=5, demote_interval=1, segment_max_records=4))
    store = GDPRStore(kv=engine,
                      config=GDPRConfig(fast_gdpr=fast_gdpr))
    return store, engine, clock


def meta(owner, **kwargs):
    kwargs.setdefault("purposes", frozenset({"billing"}))
    return GDPRMetadata(owner=owner, **kwargs)


@pytest.fixture(params=["redislike", "relational"])
def tiered_store(request):
    return make_store(request.param)


def seed(store, clock, engine):
    for i in range(4):
        store.put(f"alice:{i}", b"a" * 16, meta("alice"))
    store.put("bob:0", b"b" * 16, meta("bob"))
    clock.advance(10)
    engine.tick()                 # idle scan demotes everything
    assert engine.demotions == 5


def test_tier_moves_are_audited(tiered_store):
    store, engine, clock = tiered_store
    seed(store, clock, engine)
    store.get("alice:0")          # promote
    receipt = right_to_erasure(store, "alice")
    assert receipt.cold_segments_voided >= 1
    ops = [r.operation for r in store.audit.records()]
    assert "tier-demote" in ops
    assert "tier-promote" in ops
    assert "tier-cold-erase" in ops
    cold_erase = next(r for r in store.audit.records()
                      if r.operation == "tier-cold-erase")
    assert cold_erase.subject == store._audit_name("alice") \
        or cold_erase.subject == "alice"


def test_access_report_labels_tiers(tiered_store):
    store, engine, clock = tiered_store
    seed(store, clock, engine)
    store.get("alice:0")          # back to hot
    report = right_of_access(store, "alice")
    tiers = {r["key"]: r["tier"] for r in report.records}
    assert tiers["alice:0"] == "hot"
    assert tiers["alice:1"] == "cold"
    assert len(report.records) == 4


def test_erasure_reaches_archive(tiered_store):
    store, engine, clock = tiered_store
    seed(store, clock, engine)
    receipt = right_to_erasure(store, "alice")
    assert sorted(receipt.keys_erased) == [f"alice:{i}" for i in range(4)]
    assert receipt.crypto_erased
    assert receipt.cold_segments_voided >= 1
    assert not receipt.residual_in_aof
    # No tier serves the subject anymore.
    assert engine.execute("GET", "alice:0") is None
    assert engine.cold_keys_of_subject("alice") == []
    assert not store.subject_exists("alice")
    # Other subjects' archived records still read fine.
    assert store.get("bob:0").value == b"b" * 16


def test_promoted_records_keep_their_metadata(tiered_store):
    store, engine, clock = tiered_store
    store.put("k", b"v" * 8, meta("alice", ttl=100.0))
    clock.advance(10)
    engine.tick()
    assert not engine.inner.has_live_key(b"k")
    record = store.get("k")       # promote through the GDPR facade
    assert record.value == b"v" * 8
    assert record.metadata.owner == "alice"
    assert record.metadata.purposes == frozenset({"billing"})
    assert store.keys_of_subject("alice") == ["k"]


def test_fast_gdpr_flushes_writebehind_before_demote():
    store, engine, clock = make_store(fast_gdpr=True)
    assert engine.before_demote is not None
    store.put("k", b"v", meta("alice"))
    clock.advance(10)
    engine.tick()
    assert engine.demotions == 1
    assert store.get("k").value == b"v"
    receipt = right_to_erasure(store, "alice")
    assert receipt.crypto_erased


def test_ttl_expiry_of_cold_records_feeds_erasure_events(tiered_store):
    store, engine, clock = tiered_store
    store.put("short", b"v", meta("carol", ttl=30.0))
    clock.advance(10)
    engine.tick()                 # demoted with 20s of TTL left
    assert not engine.inner.has_live_key(b"short")
    clock.advance(30)
    store.tick()                  # cold active expiry
    assert engine.execute("GET", "short") is None
    assert not store.subject_exists("carol")
    assert any(e.key == "short" for e in store.erasure_events)


# -- the sharded cluster, every shard tiered ---------------------------------

def make_cluster(num_shards=2):
    return GDPRClient(build_cluster(
        num_shards, clock=SimClock(), store_factory=gdpr_shards(
            tiering=TieringConfig(demote_idle_after=5, demote_interval=1,
                                  segment_max_records=4))))


def test_sharded_store_tiers_every_shard():
    cluster = make_cluster()
    for i in range(12):
        cluster.put(f"user:{i}", b"x" * 16,
                    meta("alice" if i % 2 == 0 else "bob"))
    cluster.clock.advance(10)
    cluster.cluster.sync()
    demoted = sum(shard.kv.demotions for shard in cluster.shards)
    assert demoted == 12
    assert all(shard.kv.supports_tiering for shard in cluster.shards)
    assert cluster.get("user:3").value == b"x" * 16   # cross-shard promote


def test_sharded_erasure_voids_cold_on_every_shard():
    cluster = make_cluster()
    for i in range(12):
        cluster.put(f"user:{i}", b"x" * 16,
                    meta("alice" if i % 2 == 0 else "bob"))
    cluster.clock.advance(10)
    cluster.cluster.sync()
    receipt = right_to_erasure(cluster, "alice")
    assert sorted(receipt.keys_erased) == \
        sorted(f"user:{i}" for i in range(0, 12, 2))
    assert receipt.crypto_erased
    for shard in cluster.shards:
        assert shard.kv.cold_keys_of_subject("alice") == []
    assert cluster.get("user:1").value == b"x" * 16


def test_recovered_shard_keeps_its_archive():
    cluster = make_cluster()
    for i in range(8):
        cluster.put(f"user:{i}", b"x" * 16, meta("alice"))
    cluster.clock.advance(10)
    cluster.cluster.sync()
    index = cluster.shard_for("user:0")
    old_engine = cluster.shards[index].kv
    assert old_engine.demotions > 0
    cluster.cluster.recover_shard(index)
    new_engine = cluster.shards[index].kv
    assert new_engine is not old_engine
    # The cold device carried over: archived records survive the crash.
    assert new_engine.cold.recovered_segments > 0
    assert cluster.get("user:0").value == b"x" * 16
