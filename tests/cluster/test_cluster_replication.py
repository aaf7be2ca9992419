"""Tests for per-shard replication groups: cluster-wide erasure
horizon, delivery events on the scheduler, replica handoff at slot
migration, and read-from-replica routing."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ClusterError
from repro.cluster import (
    ClusterReplication,
    GDPRClient,
    SlotMigrator,
    build_cluster,
    gdpr_shards,
    slot_for_key,
)
from repro.gdpr import GDPRMetadata
from repro.gdpr.rights import right_to_erasure
from repro.kvstore import KeyValueStore, ReplicationManager, StoreConfig


def metadata(owner="alice"):
    return GDPRMetadata(owner=owner, purposes=frozenset({"service"}))


def tagged_keys(tag, count):
    return [f"{{{tag}}}:k{i}" for i in range(count)]


def gdpr_cluster(num_shards, clock=None):
    return GDPRClient(build_cluster(num_shards, clock=clock,
                                    store_factory=gdpr_shards()))


def make_replicated_store(num_shards=2, replicas=2, delay=0.010):
    store = gdpr_cluster(num_shards)
    replication = store.cluster.attach_replication(
        delays=(delay,) * replicas)
    return store, replication


class TestReplicatedShardGroups:
    def test_every_shard_gets_a_group(self):
        store, replication = make_replicated_store(num_shards=3,
                                                   replicas=2)
        assert sorted(replication.groups) == [0, 1, 2]
        for index in range(3):
            group = replication.groups[index]
            assert [link.delay for link in group.links] == [0.010, 0.010]
            assert group.primary is store.shards[index].kv

    def test_attach_twice_rejected(self):
        store, _ = make_replicated_store()
        with pytest.raises(ClusterError):
            store.cluster.attach_replication()

    def test_writes_stream_to_replicas_with_delay(self):
        store, replication = make_replicated_store(delay=0.010)
        store.put("user:1", b"payload", metadata())
        shard = store.shard_for("user:1")
        group = replication.groups[shard]
        for link in group.links:
            assert link.replica.execute("EXISTS", "user:1") == 0
        store.cluster.clock.advance(0.011)
        for link in group.links:
            assert link.replica.execute("EXISTS", "user:1") == 1

    def test_per_replica_delays(self):
        store = gdpr_cluster(1)
        replication = store.cluster.attach_replication(delays=[0.002, 0.200])
        store.put("user:1", b"payload", metadata())
        fast, slow = replication.groups[0].links
        store.cluster.clock.advance(0.003)
        assert fast.replica.execute("EXISTS", "user:1") == 1
        assert slow.replica.execute("EXISTS", "user:1") == 0

    def test_invalid_delays_rejected(self):
        store = gdpr_cluster(1)
        with pytest.raises(ClusterError):
            store.cluster.attach_replication(delays=())
        with pytest.raises(ValueError):
            store.cluster.attach_replication(delays=[0.001, -0.001])
        assert store.cluster.replication is None
        assert store.shards[0].kv.write_listeners == []

    def test_attach_full_syncs_pre_existing_data(self):
        """Regression: data written before attachment predates the
        write stream; without an initial full resync replicas would
        miss it forever."""
        store = gdpr_cluster(2)
        store.put("user:1", b"old", metadata())
        replication = store.cluster.attach_replication(delays=[0.010, 0.010])
        shard = store.shard_for("user:1")
        for link in replication.groups[shard].links:
            assert link.replica.execute("GET", "user:1") is not None


class TestErasureHorizon:
    def test_horizon_bounded_by_slowest_replica(self):
        store = gdpr_cluster(2)
        store.cluster.attach_replication(delays=[0.010, 0.120])
        store.put("user:1", b"payload", metadata())
        store.cluster.clock.advance(0.2)
        store.delete("user:1")
        horizon = store.cluster.replication.erasure_horizon(["user:1"], step=0.005)
        assert horizon is not None
        assert 0.115 <= horizon <= 0.130

    def test_subject_horizon_spans_shards(self):
        store, replication = make_replicated_store(num_shards=4,
                                                   delay=0.050)
        for i in range(12):
            store.put(f"user:{i}", b"x", metadata("alice"))
        assert len(store.shards_of_subject("alice")) > 1
        store.cluster.clock.advance(0.1)
        keys = store.keys_of_subject("alice")
        receipt = right_to_erasure(store, "alice")
        assert sorted(receipt.keys_erased) == keys
        horizon = replication.erasure_horizon(keys, step=0.005)
        assert horizon is not None
        assert 0.045 <= horizon <= 0.060
        for key in keys:
            assert not store.cluster.replication.key_visible_anywhere(key)

    def test_crypto_erasure_voids_replica_ciphertext_immediately(self):
        store, replication = make_replicated_store(num_shards=1,
                                                   replicas=1,
                                                   delay=1.0)
        store.put("user:1", b"secret", metadata("alice"))
        store.cluster.clock.advance(2.0)
        receipt = right_to_erasure(store, "alice")
        assert receipt.crypto_erased
        # The replica still *serves* the key (its DEL is in flight)...
        link = replication.groups[0].links[0]
        blob = link.replica.execute("GET", "user:1")
        assert blob is not None
        # ...but the bytes are sealed with a destroyed key: unreadable.
        with pytest.raises(Exception):
            store.keystore.cipher_for("alice", create=False)

    def test_horizon_waits_for_queued_pre_deletion_write(self):
        """Regression: a visibility-only horizon closed at 0 while the
        key's SET was still in flight -- the replica then served the
        'erased' data when the SET landed."""
        store = gdpr_cluster(1)
        store.cluster.attach_replication(delays=[1.0])
        store.put("user:1", b"pii", metadata())
        store.cluster.clock.advance(0.1)        # SET still queued (1 s delay)
        store.delete("user:1")
        horizon = store.cluster.replication.erasure_horizon(["user:1"], step=0.05,
                                                    max_wait=5.0)
        # The DEL trails the SET by 0.1 s; erasure completes when the
        # DEL lands (~1.0 s after issue), not instantly.
        assert horizon is not None
        assert 0.9 <= horizon <= 1.1
        link = store.cluster.replication.groups[0].links[0]
        assert link.replica.execute("EXISTS", "user:1") == 0

    def test_horizon_none_when_stream_stuck(self):
        store, replication = make_replicated_store(num_shards=1,
                                                   replicas=1,
                                                   delay=0.010)
        store.put("user:1", b"x", metadata())
        store.cluster.clock.advance(0.02)
        link = replication.groups[0].links[0]
        store.delete("user:1")
        link.discard_backlog()     # partitioned replica: DEL never lands
        assert replication.erasure_horizon(["user:1"], step=0.01,
                                           max_wait=0.1) is None


class TestEventDeliveredReplication:
    def test_delivery_events_drive_replicas(self):
        store, replication = make_replicated_store(delay=0.010)
        store.put("user:1", b"payload", metadata())
        shard = store.shard_for("user:1")
        link = replication.groups[shard].links[0]
        store.cluster.clock.advance(0.009)
        assert link.replica.execute("EXISTS", "user:1") == 0
        # Advancing the clock past write time + delay fires the write's
        # delivery event, which applies it.
        store.cluster.clock.advance(0.002)
        assert link.replica.execute("EXISTS", "user:1") == 1

    def test_delivery_events_are_daemon(self):
        store, replication = make_replicated_store(delay=0.010)
        store.put("user:1", b"payload", metadata())
        assert replication.backlog() == 2
        # Only daemon events in the heap: run_until_idle must not spin.
        assert store.cluster.clock.pending_live_events() == 0
        assert store.cluster.clock.run_until_idle(deadline=None) == 0

    def test_cluster_sync_never_waits_on_replication(self):
        cluster = build_cluster(2)
        replication = cluster.attach_replication(delays=[10.0])
        cluster.call("SET", "k1", "v1")
        cluster.sync()
        assert cluster.clock.now() < 1.0
        assert replication.backlog() == 1

    def test_event_driven_determinism_same_seed(self):
        def one_run():
            clock = SimClock()
            trace = clock.enable_trace()
            store = gdpr_cluster(2, clock)
            store.cluster.attach_replication(delays=[0.004, 0.040])
            for i in range(10):
                store.put(f"user:{i}", b"x" * 16,
                          metadata("alice" if i % 2 == 0 else "bob"))
            clock.advance(0.05)
            keys = store.keys_of_subject("alice")
            right_to_erasure(store, "alice")
            horizon = store.cluster.replication.erasure_horizon(keys, step=0.002)
            return horizon, clock.now(), list(trace)

        first = one_run()
        second = one_run()
        assert first[0] is not None
        assert first == second
        assert any(label.startswith("replicate-shard-")
                   for _, label in first[2])

    def test_close_cancels_deliveries_and_stream(self):
        store, replication = make_replicated_store(delay=0.010)
        store.put("user:1", b"payload", metadata())
        replication.close()
        # Only the shards' own server-cron timers remain scheduled.
        assert store.cluster.clock.pending_timers() == store.num_shards
        for index, shard in enumerate(store.shards):
            assert shard.kv.write_listeners == []
            group = replication.groups[index]
            for link in group.links:
                assert link.closed
        store.cluster.clock.advance(1.0)
        for group in replication.groups.values():
            for link in group.links:
                assert link.replica.execute("EXISTS", "user:1") == 0


class TestMigrationHandsOffReplicas:
    def test_moved_slot_replicated_on_destination(self):
        store, replication = make_replicated_store(num_shards=2,
                                                   delay=0.010)
        keys = tagged_keys("repl-mig", 5)
        for key in keys:
            store.put(key, b"payload", metadata())
        store.cluster.clock.advance(0.02)
        slot = slot_for_key(keys[0])
        source = store.cluster.slots.shard_of_slot(slot)
        target = 1 - source
        receipt = SlotMigrator(store.cluster, slot, target).run()
        assert sorted(receipt.keys_moved) == sorted(keys)
        # Full-synced at the flip: destination replicas hold the slot
        # immediately, before any delayed stream could have delivered it.
        for link in replication.groups[target].links:
            for key in keys:
                assert link.replica.execute("EXISTS", key) == 1
        assert receipt.replicas_synced >= len(keys)
        # Source replicas drop their copies once the handoff DELs land.
        store.cluster.clock.advance(0.02)
        for link in replication.groups[source].links:
            for key in keys:
                assert link.replica.execute("EXISTS", key) == 0

    def test_erasure_mid_migration_reaches_both_copies_replicas(self):
        store, replication = make_replicated_store(num_shards=2,
                                                   delay=0.010)
        keys = tagged_keys("repl-erase", 4)
        for key in keys:
            store.put(key, b"pii", metadata("alice"))
        store.cluster.clock.advance(0.02)
        slot = slot_for_key(keys[0])
        source = store.cluster.slots.shard_of_slot(slot)
        target = 1 - source
        migrator = SlotMigrator(store.cluster, slot, target)
        migrator.step(2)           # shadow copies exist on the target
        right_to_erasure(store, "alice")
        receipt = migrator.finish()
        # Every copy -- source, target, and all four replicas -- is
        # gone once the streams drain.
        horizon = replication.erasure_horizon(keys, step=0.002)
        assert horizon is not None
        for key in keys:
            assert not replication.key_visible_anywhere(key)
        assert store.cluster.verify_audit_chains()
        assert receipt.keys_moved == []

    def test_kv_cluster_migration_syncs_destination_replicas(self):
        cluster = build_cluster(2)
        replication = cluster.attach_replication(delays=[0.010])
        keys = tagged_keys("kv-repl", 4)
        for i, key in enumerate(keys):
            cluster.call("SET", key, f"v{i}")
        slot = slot_for_key(keys[0])
        source = cluster.slots.shard_of_slot(slot)
        target = 1 - source
        receipt = SlotMigrator(cluster, slot, target).run()
        assert receipt.replicas_synced >= len(keys)
        for link in replication.groups[target].links:
            for key in keys:
                assert link.replica.execute("EXISTS", key) == 1

    def test_migration_without_replication_still_works(self):
        cluster = build_cluster(2)
        keys = tagged_keys("no-repl", 3)
        for key in keys:
            cluster.call("SET", key, "v")
        slot = slot_for_key(keys[0])
        target = 1 - cluster.slots.shard_of_slot(slot)
        receipt = SlotMigrator(cluster, slot, target).run()
        assert receipt.replicas_synced == 0


class TestReadFromReplica:
    def test_replica_read_returns_stale_then_fresh(self):
        cluster = build_cluster(2)
        cluster.attach_replication(delays=[0.010])
        cluster.call("SET", "k1", "v1")
        stale = cluster.call("GET", "k1", prefer_replica=True)
        assert stale is None                      # DEL..SET in flight
        assert cluster.replica_reads == 1
        assert cluster.stale_replica_reads == 1
        cluster.sync()
        cluster.clock.advance(0.02)
        for node in cluster.nodes:
            node.clock.sleep_until(cluster.clock.now())
        fresh = cluster.call("GET", "k1", prefer_replica=True)
        assert fresh == b"v1"
        assert cluster.replica_reads == 2
        assert cluster.stale_replica_reads == 1   # unchanged

    def test_writes_never_go_to_replicas(self):
        cluster = build_cluster(1)
        cluster.attach_replication(delays=[0.010])
        cluster.call("SET", "k1", "v1", prefer_replica=True)
        assert cluster.replica_reads == 0
        assert cluster.nodes[0].store.execute("GET", "k1") == b"v1"

    def test_replica_read_follows_topology_change(self):
        """After a slot migration, a replica read through a stale
        routing cache must discover the new owner (the replica's MOVED)
        instead of silently serving the old shard's emptied replica."""
        cluster = build_cluster(2)
        replication = cluster.attach_replication(delays=[0.001])
        cluster.call("SET", "k1", "v1")
        slot = slot_for_key("k1")
        source = cluster.slots.shard_of_slot(slot)
        SlotMigrator(cluster, slot, 1 - source).run()
        cluster.sync()
        cluster.clock.advance(0.01)
        for node in cluster.nodes:
            node.clock.sleep_until(cluster.clock.now())
        moved_before = cluster.moved_redirects
        assert cluster.call("GET", "k1", prefer_replica=True) == b"v1"
        assert cluster.moved_redirects == moved_before + 1
        # The cache learned the new owner: no further redirects.
        assert cluster.call("GET", "k1", prefer_replica=True) == b"v1"
        assert cluster.moved_redirects == moved_before + 1

    def test_replica_read_long_after_a_write_is_not_stale(self):
        """Regression: replica links must deliver with cluster time even
        when the primary path has not touched the shard since, or a
        replica read long after a write serves pre-write state and is
        miscounted as stale."""
        cluster = build_cluster(2)
        cluster.attach_replication(delays=[0.001])
        cluster.call("SET", "k1", "v1")
        cluster.clock.advance(10.0)    # only the master clock moves
        assert cluster.call("GET", "k1", prefer_replica=True) == b"v1"
        assert cluster.stale_replica_reads == 0

    def test_replica_read_mid_migration_uses_primary_path(self):
        cluster = build_cluster(2)
        cluster.attach_replication(delays=[10.0])
        cluster.call("SET", "k1", "v1")
        slot = slot_for_key("k1")
        source = cluster.slots.shard_of_slot(slot)
        migrator = SlotMigrator(cluster, slot, 1 - source)
        # Replicas are hopelessly stale (10 s delay); the migrating slot
        # must fall through to the ASK-speaking primary path anyway.
        assert cluster.call("GET", "k1", prefer_replica=True) == b"v1"
        assert cluster.replica_reads == 0
        migrator.abort()

    def test_prefer_replica_serves_hash_reads_and_defaults_to_primary(self):
        cluster = build_cluster(1)
        cluster.attach_replication(delays=[0.001])
        cluster.call("HSET", "rec1", "f", "v")        # writes hit primaries
        cluster.clock.advance(0.002)
        assert cluster.call("HGETALL", "rec1",
                            prefer_replica=True) == [b"f", b"v"]
        assert cluster.call("HMGET", "rec1", "f",
                            prefer_replica=True) == [b"v"]
        assert cluster.replica_reads == 2
        assert cluster.call("HGETALL", "rec1") == [b"f", b"v"]
        assert cluster.replica_reads == 2              # default: primary

    def test_no_replication_attached_falls_through(self):
        cluster = build_cluster(1)
        cluster.call("SET", "k1", "v1")
        assert cluster.call("GET", "k1", prefer_replica=True) == b"v1"
        assert cluster.replica_reads == 0

    def test_rebuild_shard_reuses_topology(self):
        """The registry holds the delays and the clock once: a rebuilt
        group gets them from there, not from the dead group."""
        clock = SimClock()
        primary = KeyValueStore(StoreConfig(), clock=clock)
        replication = ClusterReplication(clock, [(0, primary)],
                                         delays=(0.002, 0.050))
        old = replication.groups[0]
        recovered = KeyValueStore(StoreConfig(), clock=clock)
        recovered.execute("SET", "k", "v2")
        group = replication.rebuild_shard(0, recovered)
        assert old.closed and primary.write_listeners == []
        assert [link.delay for link in group.links] == [0.002, 0.050]
        assert group.clock is clock
        for link in group.links:
            assert link.replica.execute("GET", "k") == b"v2"

    def test_link_touches_matches_keys_only(self):
        primary = KeyValueStore(StoreConfig(), clock=SimClock())
        link = ReplicationManager(primary, delays=[10.0]).links[0]
        primary.execute("SET", "hit", "value-mentioning-miss")
        assert link.touches([b"hit"])
        assert not link.touches([b"miss"])


class TestEventDrivenClusterReplication:
    def test_scheduler_pumped_replicas_and_horizon(self):
        cluster = build_cluster(2)
        replication = cluster.attach_replication(delays=[0.005, 0.005])
        for i in range(6):
            cluster.call("SET", f"k{i}", f"v{i}")
        cluster.sync()
        cluster.clock.advance(0.02)    # delivery events on the scheduler
        assert replication.backlog() == 0
        assert cluster.call("GET", "k3", prefer_replica=True) == b"v3"
        assert cluster.stale_replica_reads == 0
        cluster.call("DEL", "k3")
        horizon = replication.erasure_horizon([b"k3"], step=0.001)
        assert horizon == pytest.approx(0.005, abs=0.002)


class TestRecoveryRehomesReplication:
    def test_recover_shard_rebuilds_group(self):
        store, replication = make_replicated_store(num_shards=2,
                                                   replicas=2,
                                                   delay=0.010)
        store.put("user:1", b"payload", metadata())
        shard = store.shard_for("user:1")
        store.cluster.clock.advance(0.02)
        old_group = replication.groups[shard]
        store.cluster.recover_shard(shard)
        new_group = replication.groups[shard]
        assert new_group is not old_group
        assert new_group.primary is store.shards[shard].kv
        assert len(new_group.links) == 2
        assert [l.delay for l in new_group.links] \
            == [l.delay for l in old_group.links]
        # Replicas were full-synced from the recovered primary...
        for link in new_group.links:
            assert link.replica.execute("EXISTS", "user:1") == 1
        # ...and the new stream is live on the store's clock.
        store.put("user:2", b"more", metadata())
        if store.shard_for("user:2") == shard:
            store.cluster.clock.advance(0.02)
            assert new_group.links[0].replica.execute(
                "EXISTS", "user:2") == 1
