"""The relational engine under the full stack: RESP cluster, slot
migration, GDPR rights fan-out, replication groups, and the open-loop
driver -- the "same GDPR, cluster, and YCSB stack" half of the
multi-backend claim."""

import pytest

from repro.cluster import (
    GDPRClient,
    SlotMigrator,
    build_cluster,
    gdpr_shards,
    slot_for_key,
)
from repro.common.clock import Clock, SimClock
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import (
    right_of_access,
    right_to_erasure,
    right_to_portability,
)
from repro.sqlstore import RelationalStore, SqlConfig
from repro.ycsb.openloop import OpenLoopRunner
from repro.ycsb.workloads import WORKLOAD_B


def sql_factory(index: int, clock: Clock) -> RelationalStore:
    return RelationalStore(SqlConfig(seed=index), clock=clock)


def meta(owner: str) -> GDPRMetadata:
    return GDPRMetadata(owner=owner, purposes=frozenset({"service"}))


def test_resp_cluster_over_relational_shards():
    cluster = build_cluster(3, store_factory=sql_factory)
    for number in range(40):
        cluster.call("SET", f"user{number}", f"v{number}")
    assert cluster.call("GET", "user7") == b"v7"
    assert cluster.call("DBSIZE") == 40
    pipeline = cluster.pipeline()
    for number in range(8):
        pipeline.call("GET", f"user{number}")
    replies = pipeline.execute()
    assert replies[3] == b"v3"
    assert sum(cluster.keyspace_sizes()) == 40


def test_slot_migration_between_relational_shards():
    cluster = build_cluster(2, store_factory=sql_factory)
    keys = [f"user{number}" for number in range(30)]
    for key in keys:
        cluster.call("SET", key, "payload")
    source_slots = [slot for slot in
                    {slot_for_key(key) for key in keys}
                    if cluster.slots.shard_of_slot(slot) == 0]
    slot = source_slots[0]
    migrator = SlotMigrator(cluster, slot, 1)
    receipt = migrator.run(batch_size=4)
    assert receipt.keys_moved
    for key in receipt.keys_moved:
        assert cluster.call("GET", key) == b"payload"
        assert cluster.nodes[1].store.has_live_key(key.encode())
        assert not cluster.nodes[0].store.has_live_key(key.encode())


def test_sharded_gdpr_rights_over_relational_shards():
    store = GDPRClient(build_cluster(
        3, store_factory=gdpr_shards(kv_factory=sql_factory)))
    for number in range(24):
        owner = "alice" if number % 3 == 0 else f"other{number % 5}"
        store.put(f"user:{number}", b"pii", meta(owner))
    holders = store.shards_of_subject("alice")
    assert len(holders) >= 2          # the subject spans shards
    report = right_of_access(store, "alice")
    assert len(report.records) == 8
    export = right_to_portability(store, "alice")
    assert b"user:0" in export
    receipt = right_to_erasure(store, "alice")
    assert len(receipt.keys_erased) == 8
    assert receipt.crypto_erased
    assert not store.subject_exists("alice")
    store.cluster.verify_audit_chains()
    # The relational shards answered subject lookups from their native
    # owner index (metadata columns), not the sidecar.
    assert all(shard.kv.supports_metadata_columns
               for shard in store.shards)


def test_sharded_gdpr_recovery_from_wal():
    store = GDPRClient(build_cluster(
        2, store_factory=gdpr_shards(kv_factory=sql_factory)))
    for number in range(12):
        store.put(f"user:{number}", b"pii", meta(f"owner{number % 3}"))
    victim = store.shards_of_subject("owner0")[0]
    keys_before = sorted(store.shards[victim].index.keys())
    replayed = store.cluster.recover_shard(victim)
    assert replayed > 0
    assert sorted(store.shards[victim].index.keys()) == keys_before
    assert store.shards[victim].kv.engine_name == "relational"


def test_replication_groups_over_relational_shards():
    store = GDPRClient(build_cluster(
        2, store_factory=gdpr_shards(kv_factory=sql_factory)))
    store.cluster.attach_replication(delays=[0.002, 0.002])
    store.put("user:1", b"pii", meta("alice"))
    store.cluster.clock.advance(0.01)
    group = store.cluster.replication.groups[store.shard_for("user:1")]
    assert all(link.replica.engine_name == "relational"
               for link in group.links)
    keys = store.keys_of_subject("alice")
    right_to_erasure(store, "alice")
    horizon = store.cluster.replication.erasure_horizon(keys, step=0.0005)
    assert horizon is not None and horizon <= 0.004


def test_open_loop_driver_over_relational_shards():
    cluster = build_cluster(2, store_factory=sql_factory)
    spec = WORKLOAD_B.scaled(record_count=40, operation_count=120)
    runner = OpenLoopRunner(cluster, spec, clients=4,
                            arrival_rate=20_000.0, seed=7)
    runner.preload()
    report = runner.run(120)
    assert report.completed == 120
    assert report.failures == 0
    assert report.throughput > 0


def test_event_cluster_determinism_over_relational_shards():
    def run_once():
        cluster = build_cluster(2, store_factory=sql_factory)
        spec = WORKLOAD_B.scaled(record_count=30, operation_count=90)
        runner = OpenLoopRunner(cluster, spec, clients=3,
                                arrival_rate=15_000.0, seed=11)
        runner.preload()
        return runner.run(90).summary()

    assert run_once() == run_once()
