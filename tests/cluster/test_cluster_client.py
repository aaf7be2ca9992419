"""Tests for the cluster client: routing, pipelining economics, and
shard overlap on the shared scheduler."""

import pytest

from repro.common.errors import ClusterError, CrossSlotError
from repro.common.resp import RespError, SimpleString
from repro.cluster import SlotMap, build_cluster
from repro.kvstore import KeyValueStore, StoreConfig


def spread_keys(cluster, count=64):
    return [f"k{i}" for i in range(count)]


class TestRouting:
    def test_set_get_round_trip(self):
        cluster = build_cluster(3)
        assert cluster.call("SET", "k", "v") == SimpleString("OK")
        assert cluster.call("GET", "k") == b"v"

    def test_keys_land_on_their_slot_owner(self):
        cluster = build_cluster(4)
        for key in spread_keys(cluster):
            cluster.call("SET", key, "v")
        sizes = cluster.keyspace_sizes()
        assert sum(sizes) == 64
        assert all(size > 0 for size in sizes)  # 64 keys spread over 4
        for key in spread_keys(cluster):
            shard = cluster.shard_for(key)
            node = cluster.nodes[shard]
            assert node.store.execute("GET", key) == b"v"

    def test_cross_slot_multikey_rejected(self):
        cluster = build_cluster(2)
        # Find two keys on different shards.
        keys = spread_keys(cluster)
        a = keys[0]
        b = next(k for k in keys
                 if cluster.shard_for(k) != cluster.shard_for(a))
        with pytest.raises(CrossSlotError):
            cluster.call("EXISTS", a, b)

    def test_hash_tags_allow_multikey(self):
        cluster = build_cluster(4)
        cluster.call("SET", "{user}a", "1")
        cluster.call("SET", "{user}b", "2")
        assert cluster.call("EXISTS", "{user}a", "{user}b") == 2
        assert cluster.call("DEL", "{user}a", "{user}b") == 2

    def test_keyless_commands_route_to_shard_zero(self):
        cluster = build_cluster(3)
        assert cluster.call("PING") == SimpleString("PONG")
        assert cluster.nodes[0].store.stats.commands_processed == 1

    def test_explicit_shard_pinning(self):
        cluster = build_cluster(3)
        assert "repro_version" in cluster.call(
            "INFO", shard=2).decode("utf-8")

    def test_errors_raised_and_returned(self):
        cluster = build_cluster(2)
        with pytest.raises(RespError):
            cluster.call("NOSUCHCMD", "k")
        reply = cluster.call("NOSUCHCMD", "k", raise_errors=False)
        assert isinstance(reply, RespError)

    def test_slot_map_must_cover_nodes(self):
        slot_map = SlotMap.even(4)
        with pytest.raises(ClusterError):
            build_cluster(2, slot_map=slot_map)

    def test_cross_slot_rename_rejected(self):
        cluster = build_cluster(4)
        keys = spread_keys(cluster)
        source = keys[0]
        cluster.call("SET", source, "v")
        target = next(k for k in keys
                      if cluster.shard_for(k) != cluster.shard_for(source))
        # A multi-key write across slots is refused before it runs.
        with pytest.raises(CrossSlotError):
            cluster.call("DEL", source, target)
        assert cluster.call("GET", source) == b"v"
        # Tagged (same-slot) keys go through.
        cluster.call("SET", "{t}old", "v")
        assert cluster.call("DEL", "{t}old", "{t}new") == 1


class TestBroadcastCommands:
    def populate(self, num_shards=3, count=24):
        cluster = build_cluster(num_shards)
        for key in [f"k{i}" for i in range(count)]:
            cluster.call("SET", key, "v")
        return cluster

    def test_flushall_reaches_every_shard(self):
        cluster = self.populate()
        assert cluster.call("FLUSHALL") == SimpleString("OK")
        assert cluster.keyspace_sizes() == [0, 0, 0]

    def test_dbsize_sums_across_shards(self):
        cluster = self.populate(count=24)
        assert cluster.call("DBSIZE") == 24

    def test_keys_merges_across_shards(self):
        cluster = self.populate(count=10)
        found = sorted(cluster.call("KEYS", "*"))
        assert found == sorted(f"k{i}".encode() for i in range(10))

    def test_scan_and_randomkey_need_a_pinned_shard(self):
        cluster = self.populate()
        with pytest.raises(ClusterError):
            cluster.call("SCAN", "0")
        # Pinned to one shard it behaves as a single-node command.
        cursor, page = cluster.call("SCAN", "0", shard=1)
        assert isinstance(page, list)
        # RANDOMKEY is not served.
        with pytest.raises(RespError, match="unknown command"):
            cluster.call("RANDOMKEY", shard=1)

    def test_broadcasts_rejected_in_pipelines(self):
        cluster = self.populate()
        with pytest.raises(ClusterError):
            cluster.pipeline().call("FLUSHALL")


class TestPipelining:
    def test_pipeline_mixed_errors_kept_in_position(self):
        cluster = build_cluster(3)
        pipeline = cluster.pipeline()
        pipeline.call("SET", "a", "1").call("NOSUCHCMD", "a")
        pipeline.call("GET", "a")
        replies = pipeline.execute(raise_errors=False)
        assert replies[0] == SimpleString("OK")
        assert isinstance(replies[1], RespError)
        assert replies[2] == b"1"

    def test_pipeline_raises_on_error_by_default(self):
        cluster = build_cluster(2)
        with pytest.raises(RespError):
            cluster.pipeline().call("NOSUCHCMD", "k").execute()

    def test_depth_amortizes_round_trips(self):
        """The acceptance ratio: depth-8 batches beat depth-1 on the same
        shard count because the channel is paid per batch, not per op."""
        ops = [("SET", f"k{i}", "v") for i in range(64)]
        one_by_one = build_cluster(2)
        for op in ops:
            one_by_one.call(*op)
        batched = build_cluster(2)
        for start in range(0, len(ops), 8):
            pipeline = batched.pipeline()
            for op in ops[start:start + 8]:
                pipeline.call(*op)
            pipeline.execute()
        assert batched.clock.now() < one_by_one.clock.now()

    def test_more_shards_run_batches_concurrently(self):
        """With per-shard clocks a batch costs the slowest shard, so the
        same pipelined workload finishes sooner on more shards."""
        def elapsed(num_shards):
            cluster = build_cluster(
                num_shards,
                store_factory=lambda i, clock: KeyValueStore(
                    StoreConfig(command_cpu_cost=25e-6), clock=clock))
            for start in range(0, 64, 16):
                pipeline = cluster.pipeline()
                for i in range(start, start + 16):
                    pipeline.call("SET", f"k{i}", "v")
                pipeline.execute()
            return cluster.clock.now()

        assert elapsed(4) < elapsed(1)

    def test_sync_brings_idle_shards_forward(self):
        cluster = build_cluster(2)
        cluster.call("SET", "k", "v" * 1000)
        cluster.sync()
        now = cluster.clock.now()
        assert all(node.clock.now() == now for node in cluster.nodes)
