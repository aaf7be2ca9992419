"""Tests for parallel slot migration (rebalance) and the cluster's
event-driven wiring."""

import random

import pytest

from repro.cluster import (
    GDPRClient,
    build_cluster,
    gdpr_shards,
    slot_for_key,
)
from repro.common.clock import SimClock
from repro.common.errors import ClusterError
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import right_to_erasure
from repro.kvstore.store import KeyValueStore, StoreConfig


def populated_store(num_shards=3, keys=90, seed=7):
    store = GDPRClient(build_cluster(num_shards,
                                     store_factory=gdpr_shards()))
    rng = random.Random(seed)
    for number in range(keys):
        owner = "alice" if number % 3 == 0 else f"user-{number % 5}"
        store.put(f"user:{number}",
                  bytes(rng.randrange(97, 123) for _ in range(24)),
                  GDPRMetadata(owner=owner,
                               purposes=frozenset({"service"})))
    return store


class TestRebalance:
    def test_rebalance_moves_an_even_share(self):
        store = populated_store()
        target_before = len(store.shards[2].index)
        plan = store.cluster.rebalance_plan(2)
        receipts = store.cluster.rebalance(2)
        assert len(receipts) == len(plan)
        assert all(not receipt.aborted for receipt in receipts)
        assert len(store.shards[2].index) > target_before
        # Every migrated slot is now owned by the target.
        for receipt in receipts:
            assert store.cluster.slots.shard_of_slot(receipt.slot) == 2
            assert receipt.target == 2

    def test_migrations_interleave_as_event_streams(self):
        """Multiple migrators progress concurrently: with slot-count >
        concurrency the completion times cluster, instead of one slot
        finishing completely before the next starts."""
        store = populated_store(keys=120)
        receipts = store.cluster.rebalance(2, concurrency=4, batch_size=2)
        assert len(receipts) >= 4
        # Completion order need not equal plan order when streams
        # interleave; at minimum all receipts completed after start.
        for receipt in receipts:
            assert receipt.completed_at >= receipt.started_at

    def test_audit_chains_intact_after_rebalance(self):
        store = populated_store()
        store.cluster.rebalance(0)
        verified = store.cluster.verify_audit_chains()
        assert set(verified) == {0, 1, 2}

    def test_subject_rights_survive_rebalance(self):
        store = populated_store()
        keys_before = store.keys_of_subject("alice")
        store.cluster.rebalance(1)
        assert store.keys_of_subject("alice") == keys_before
        receipt = right_to_erasure(store, "alice")
        assert sorted(receipt.keys_erased) == keys_before
        assert receipt.crypto_erased

    def test_drive_false_lets_caller_interleave(self):
        store = populated_store()
        plan = store.cluster.rebalance_plan(2)
        receipts = store.cluster.rebalance(2, drive=False)
        assert receipts == []        # streams scheduled, nothing run yet
        # Caller drives the clock; foreground traffic interleaves here.
        while len(receipts) < len(plan):
            assert store.cluster.clock.run_next()
        assert len(receipts) == len(plan)

    def test_rebalance_rejects_unknown_target(self):
        store = populated_store()
        with pytest.raises(ClusterError):
            store.cluster.rebalance(7)

    def test_explicit_slot_list_deduplicated(self):
        store = populated_store()
        slot = slot_for_key("user:0")
        source = store.cluster.slots.shard_of_slot(slot)
        target = (source + 1) % store.num_shards
        receipts = store.cluster.rebalance(target, slots=[slot, slot])
        assert len(receipts) == 1
        assert store.cluster.slots.shard_of_slot(slot) == target


class TestEventCluster:
    def test_event_cluster_requires_shared_scheduler(self):
        from repro.cluster import ClusterClient
        from repro.cluster.client import ClusterNode
        from repro.cluster.workers import WorkerPool
        from repro.common.clock import ShardClock
        from repro.net.channel import Channel

        nodes = []
        for index, scheduler in enumerate((SimClock(), SimClock())):
            store = KeyValueStore(StoreConfig(), clock=ShardClock())
            channel = Channel(clock=scheduler)
            nodes.append(ClusterNode(index, store, channel,
                                     WorkerPool(store.clock, scheduler)))
        with pytest.raises(ClusterError):
            ClusterClient(nodes)

    def test_await_replies_raises_instead_of_spinning_on_cron(self):
        """A missing reply must surface as an error even though the
        cron daemon keeps the event heap non-empty forever."""
        from repro.common.resp import RespError

        cluster = build_cluster(1)
        node = cluster.nodes[0]
        node.send_batch([[b"PING"]])
        with pytest.raises(RespError, match="no reply"):
            node.await_replies(2)      # only one reply will ever come

    def test_pipelined_batch_overlaps_shards(self):
        """With per-shard service meters on one scheduler, a batch
        spanning 4 shards costs far less than 4x one shard's work."""
        def factory(index, clock):
            return KeyValueStore(
                StoreConfig(command_cpu_cost=1e-3, seed=index),
                clock=clock)

        def batch_cost(shards):
            cluster = build_cluster(shards, store_factory=factory)
            pipeline = cluster.pipeline()
            for index in range(32):
                pipeline.call("SET", f"key:{index}", index)
            began = cluster.clock.now()
            pipeline.execute()
            return cluster.clock.now() - began

        assert batch_cost(4) < batch_cost(1) * 0.5
