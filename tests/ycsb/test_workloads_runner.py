"""Tests for workload specs, record generation, adapters, and the runner."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import SerializationError
from repro.gdpr import GDPRConfig, GDPRMetadata, GDPRStore
from repro.kvstore import EventConnection, KeyValueStore, StoreConfig
from repro.net.channel import loopback
from repro.ycsb import (
    CORE_WORKLOADS,
    FIGURE1_PHASES,
    FieldGenerator,
    GDPRAdapter,
    KVAdapter,
    WorkloadRunner,
    WorkloadSpec,
    build_key_name,
    pack_fields,
    unpack_fields,
)
from tests.support import one_core_server


class TestWorkloadSpecs:
    def test_core_workloads_defined(self):
        assert set(CORE_WORKLOADS) == {"A", "B", "C", "D", "E", "F"}

    def test_proportions_sum_to_one(self):
        for spec in CORE_WORKLOADS.values():
            total = sum(p for _, p in spec.operation_mix())
            assert total == pytest.approx(1.0)

    def test_a_is_half_updates(self):
        assert CORE_WORKLOADS["A"].update_proportion == 0.5

    def test_c_is_read_only(self):
        assert CORE_WORKLOADS["C"].read_proportion == 1.0

    def test_d_uses_latest(self):
        assert CORE_WORKLOADS["D"].request_distribution == "latest"

    def test_e_scans(self):
        assert CORE_WORKLOADS["E"].scan_proportion == 0.95

    def test_record_shape(self):
        spec = CORE_WORKLOADS["A"]
        assert spec.field_count == 10
        assert spec.field_length == 100

    def test_invalid_proportions_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", read_proportion=0.7)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", read_proportion=1.0,
                         request_distribution="gaussian")

    def test_scaled_copy(self):
        scaled = CORE_WORKLOADS["A"].scaled(record_count=50,
                                            operation_count=99)
        assert scaled.record_count == 50
        assert scaled.operation_count == 99
        assert CORE_WORKLOADS["A"].record_count != 50 or True

    def test_figure1_phases(self):
        assert FIGURE1_PHASES == ("Load-A", "A", "B", "C", "D",
                                  "Load-E", "E", "F")


class TestGenerators:
    def test_key_name_hashed(self):
        assert build_key_name(1) == build_key_name(1)
        assert build_key_name(1) != build_key_name(2)
        assert build_key_name(5).startswith("user")

    def test_key_name_ordered(self):
        assert build_key_name(7, ordered=True) < build_key_name(
            8, ordered=True)

    def test_field_values_shape(self):
        gen = FieldGenerator(field_count=10, field_length=100)
        values = gen.build_values()
        assert len(values) == 10
        assert all(len(v) == 100 for v in values.values())
        assert set(values) == {f"field{i}" for i in range(10)}

    def test_update_single_field(self):
        gen = FieldGenerator()
        update = gen.build_update()
        assert len(update) == 1

    def test_pack_unpack_fields(self):
        values = {"field0": b"\x00binary\xff", "field1": b""}
        assert unpack_fields(pack_fields(values)) == values
        assert unpack_fields(pack_fields({})) == {}

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda blob: blob[:150], id="payload-overruns"),
        pytest.param(lambda blob: blob[:-1], id="payload-one-byte-short"),
        pytest.param(lambda blob: blob[:112], id="header-truncated"),
        pytest.param(lambda blob: blob[:10], id="name-overruns"),
        pytest.param(lambda blob: blob[:1], id="count-truncated"),
        pytest.param(lambda blob: b"", id="empty"),
        pytest.param(lambda blob: blob + b"junk", id="trailing-bytes"),
        pytest.param(lambda blob: b"\x00\x03" + blob[2:],
                     id="one-field-too-many"),
        pytest.param(lambda blob: blob[:8] + b"\xff" + blob[9:],
                     id="non-ascii-name"),
    ])
    def test_unpack_rejects_damaged_blob(self, damage):
        blob = pack_fields({"field0": b"x" * 100, "field1": b"y" * 100})
        with pytest.raises(SerializationError):
            unpack_fields(damage(blob))

    @pytest.mark.parametrize("field_count, field_length",
                             [(0, 10), (-1, 10), (2, -5)])
    def test_field_generator_rejects_bad_shape(self, field_count,
                                               field_length):
        with pytest.raises(ValueError, match="field_"):
            FieldGenerator(field_count, field_length)

    def test_zero_length_fields_leave_the_rng_alone(self):
        gen = FieldGenerator(3, 0, seed=5)
        before = gen._rng.getstate()
        assert gen.build_values() == {f"field{i}": b"" for i in range(3)}
        assert gen._rng.getstate() == before


@pytest.fixture
def kv_adapter():
    store = KeyValueStore(clock=SimClock())
    return KVAdapter(store)


class TestKVAdapter:
    def test_insert_read(self, kv_adapter):
        kv_adapter.insert("user1", {"f0": b"v0", "f1": b"v1"})
        assert kv_adapter.read("user1") == {"f0": b"v0", "f1": b"v1"}

    def test_read_subset(self, kv_adapter):
        kv_adapter.insert("user1", {"f0": b"v0", "f1": b"v1"})
        assert kv_adapter.read("user1", fields=["f1"]) == {"f1": b"v1"}

    def test_update_merges(self, kv_adapter):
        kv_adapter.insert("user1", {"f0": b"v0", "f1": b"v1"})
        kv_adapter.update("user1", {"f1": b"new"})
        assert kv_adapter.read("user1") == {"f0": b"v0", "f1": b"new"}

    def test_scan_returns_records(self, kv_adapter):
        for i in range(20):
            kv_adapter.insert(f"user{i:03d}", {"f0": str(i).encode()})
        results = kv_adapter.scan("user000", 5)
        assert 1 <= len(results) <= 5
        assert all(isinstance(r, dict) for r in results)

    def test_delete(self, kv_adapter):
        kv_adapter.insert("user1", {"f0": b"v"})
        kv_adapter.delete("user1")
        assert kv_adapter.read("user1") == {}


class TestKVAdapterOverConnection:
    def test_roundtrip_over_channel(self):
        clock = SimClock()
        client = EventConnection(one_core_server(clock),
                                 channel=loopback(clock))
        adapter = KVAdapter(client)
        adapter.insert("u1", {"f0": b"v"})
        assert adapter.read("u1") == {"f0": b"v"}
        adapter.update("u1", {"f0": b"w"})
        assert adapter.read("u1", fields=["f0"]) == {"f0": b"w"}
        adapter.delete("u1")
        assert adapter.read("u1") == {}


class TestClusterPipeline:
    """YCSB-shaped records driven straight through a cluster client's
    pipeline, the way the cluster benches load and run them."""

    def make(self, num_shards=3):
        from repro.cluster import build_cluster
        return build_cluster(num_shards)

    @staticmethod
    def hset(key, values):
        return ["HSET", key, *(arg for name, payload in values.items()
                               for arg in (name.encode("ascii"), payload))]

    def test_insert_read_round_trip(self):
        cluster = self.make()
        cluster.pipeline().call(
            *self.hset("user1", {"f0": b"a", "f1": b"b"})).execute()
        assert cluster.call("HGETALL", "user1") == [b"f0", b"a",
                                                    b"f1", b"b"]
        assert cluster.call("HMGET", "user1", "f1") == [b"b"]

    def test_records_spread_across_shards(self):
        cluster = self.make()
        pipeline = cluster.pipeline()
        for number in range(30):
            pipeline.call(*self.hset(build_key_name(number), {"f0": b"v"}))
        assert pipeline.execute() == [1] * 30
        assert all(size > 0 for size in cluster.keyspace_sizes())

    def test_pipelined_update_lands_after_its_insert(self):
        cluster = self.make()
        pipeline = cluster.pipeline()
        pipeline.call(*self.hset("user1", {"f0": b"a"}))
        pipeline.call(*self.hset("user1", {"f0": b"b"}))
        assert cluster.call("EXISTS", "user1") == 0    # nothing sent yet
        pipeline.execute()
        assert cluster.call("HGET", "user1", "f0") == b"b"

    def test_pipelined_load_is_faster(self):
        def load(depth):
            cluster = self.make()
            pipeline = cluster.pipeline()
            for number in range(48):
                pipeline.call(*self.hset(build_key_name(number),
                                         {"f0": b"v"}))
                if len(pipeline) >= depth:
                    pipeline.execute()
            return cluster.clock.now()

        assert load(8) < load(1)


class TestGDPRAdapter:
    def make(self):
        clock = SimClock()
        kv = KeyValueStore(StoreConfig(appendonly=True), clock=clock)
        store = GDPRStore(kv=kv, config=GDPRConfig())
        return GDPRAdapter(store, purpose="service"), store

    def test_insert_read(self):
        adapter, _ = self.make()
        adapter.insert("u1", {"f0": b"v0"})
        assert adapter.read("u1") == {"f0": b"v0"}

    def test_per_record_subjects(self):
        adapter, store = self.make()
        adapter.insert("u1", {"f0": b"v"})
        adapter.insert("u2", {"f0": b"v"})
        assert store.keys_of_subject("subject-u1") == ["u1"]
        assert store.keys_of_subject("subject-u2") == ["u2"]

    def test_operations_audited(self):
        adapter, store = self.make()
        adapter.insert("u1", {"f0": b"v"})
        adapter.read("u1")
        ops = [r.operation for r in store.audit.records()]
        assert "put" in ops and "get" in ops

    def test_update_preserves_other_fields(self):
        adapter, _ = self.make()
        adapter.insert("u1", {"f0": b"a", "f1": b"b"})
        adapter.update("u1", {"f1": b"c"})
        assert adapter.read("u1") == {"f0": b"a", "f1": b"c"}

    def test_scan_sorted_window(self):
        adapter, _ = self.make()
        for i in range(10):
            adapter.insert(f"user{i:02d}", {"f0": b"v"})
        results = adapter.scan("user03", 4)
        assert len(results) == 4

    def test_delete(self):
        adapter, store = self.make()
        adapter.insert("u1", {"f0": b"v"})
        adapter.delete("u1")
        with pytest.raises(KeyError):
            store.get("u1")


class TestRunner:
    def test_load_inserts_record_count(self):
        clock = SimClock()
        adapter = KVAdapter(KeyValueStore(clock=clock))
        spec = CORE_WORKLOADS["A"].scaled(record_count=50)
        report = WorkloadRunner(adapter, spec, clock).load()
        assert report.operations == 50
        assert report.phase == "Load-A"
        assert adapter.store.execute("DBSIZE") == 51  # records + index

    def test_run_executes_operation_count(self):
        clock = SimClock()
        adapter = KVAdapter(KeyValueStore(clock=clock))
        spec = CORE_WORKLOADS["A"].scaled(record_count=50,
                                          operation_count=200)
        runner = WorkloadRunner(adapter, spec, clock)
        runner.load()
        report = runner.run()
        assert report.operations == 200
        assert report.failures == 0

    def test_histograms_match_mix(self):
        clock = SimClock()
        adapter = KVAdapter(KeyValueStore(clock=clock))
        spec = CORE_WORKLOADS["A"].scaled(record_count=50,
                                          operation_count=400)
        runner = WorkloadRunner(adapter, spec, clock)
        runner.load()
        report = runner.run()
        assert set(report.histograms) <= {"read", "update"}
        reads = report.histograms["read"].count
        updates = report.histograms["update"].count
        assert reads + updates == 400
        assert abs(reads - updates) < 120  # 50/50 mix

    def test_throughput_requires_time(self):
        clock = SimClock()
        store = KeyValueStore(StoreConfig(command_cpu_cost=10e-6),
                              clock=clock)
        spec = CORE_WORKLOADS["C"].scaled(record_count=20,
                                          operation_count=100)
        runner = WorkloadRunner(KVAdapter(store), spec, clock)
        runner.load()
        report = runner.run()
        assert report.throughput > 0
        assert report.sim_elapsed > 0

    def test_workload_d_inserts_extend_keyspace(self):
        clock = SimClock()
        adapter = KVAdapter(KeyValueStore(clock=clock))
        spec = CORE_WORKLOADS["D"].scaled(record_count=50,
                                          operation_count=300)
        runner = WorkloadRunner(adapter, spec, clock)
        runner.load()
        runner.run()
        assert runner.insert_counter.last_value() > 49

    def test_workload_e_scans(self):
        clock = SimClock()
        adapter = KVAdapter(KeyValueStore(clock=clock))
        spec = CORE_WORKLOADS["E"].scaled(record_count=50,
                                          operation_count=100)
        runner = WorkloadRunner(adapter, spec, clock)
        runner.load()
        report = runner.run()
        assert "scan" in report.histograms

    def test_workload_f_rmw(self):
        clock = SimClock()
        adapter = KVAdapter(KeyValueStore(clock=clock))
        spec = CORE_WORKLOADS["F"].scaled(record_count=50,
                                          operation_count=100)
        runner = WorkloadRunner(adapter, spec, clock)
        runner.load()
        report = runner.run()
        assert "rmw" in report.histograms or "read" in report.histograms

    def test_deterministic_with_seed(self):
        def run(seed):
            clock = SimClock()
            store = KeyValueStore(StoreConfig(command_cpu_cost=10e-6),
                                  clock=clock)
            spec = CORE_WORKLOADS["A"].scaled(record_count=30,
                                              operation_count=100)
            runner = WorkloadRunner(KVAdapter(store), spec, clock,
                                    seed=seed)
            runner.load()
            return runner.run().throughput

        assert run(3) == run(3)

    def test_summary_shape(self):
        clock = SimClock()
        adapter = KVAdapter(KeyValueStore(clock=clock))
        spec = CORE_WORKLOADS["C"].scaled(record_count=20,
                                          operation_count=50)
        runner = WorkloadRunner(adapter, spec, clock)
        runner.load()
        summary = runner.run().summary()
        assert {"phase", "operations", "throughput_ops_per_s",
                "ops"} <= set(summary)
