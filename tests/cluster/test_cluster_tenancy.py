"""Integration tests for tenancy at the cluster boundary.

TENANT connection stamping over RESP, admission errors on the wire
(TENANTUNKNOWN / TENANTDENIED / QUOTAEXCEEDED), tenant-scoped keyspace
commands, GDPR fan-out isolation through sharded stores, and the
open-loop driver's per-tenant streams.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.resp import RespError, SimpleString
from repro.cluster import build_cluster
from repro.tenancy import (
    MeteringPipeline,
    TenantGate,
    TenantPolicy,
    TenantQuota,
    TenantRegistry,
)
from repro.ycsb import WorkloadSpec
from repro.ycsb.openloop import OpenLoopRunner


def make_gate(clock, quotas=None):
    registry = TenantRegistry()
    registry.register("acme", quota=(quotas or {}).get("acme"))
    registry.register("globex", quota=(quotas or {}).get("globex"))
    return TenantGate(registry, clock)


def make_tenant_cluster(num_shards=2, quotas=None, **kw):
    clock = SimClock()
    gate = make_gate(clock, quotas)
    cluster = build_cluster(num_shards, clock=clock,
                            tenant_gate=gate, **kw)
    return cluster, gate


class TestTenantStamping:
    def test_tenant_command_scopes_the_connection(self):
        cluster, _ = make_tenant_cluster()
        cluster.set_tenant("acme")
        assert cluster.call("SET", "acme/k", "v") == SimpleString("OK")
        assert cluster.call("GET", "acme/k") == b"v"

    def test_unknown_tenant_refused_at_stamp_time(self):
        cluster, _ = make_tenant_cluster()
        with pytest.raises(RespError, match="TENANTUNKNOWN"):
            cluster.call("TENANT", "nobody", shard=0)

    def test_foreign_namespace_denied(self):
        cluster, gate = make_tenant_cluster()
        cluster.set_tenant("acme")
        with pytest.raises(RespError, match="TENANTDENIED"):
            cluster.call("SET", "globex/k", "v")
        with pytest.raises(RespError, match="TENANTDENIED"):
            cluster.call("GET", "unprefixed-key")
        assert gate.counters_of("acme").denied == 2

    def test_unstamped_connections_bypass_tenancy(self):
        # Operator connections (no TENANT) keep full keyspace access.
        cluster, _ = make_tenant_cluster()
        assert cluster.call("SET", "anything", "v") == SimpleString("OK")
        assert cluster.call("GET", "anything") == b"v"


class TestQuotaOnTheWire:
    def test_rate_quota_returns_quotaexceeded(self):
        cluster, gate = make_tenant_cluster(
            quotas={"acme": TenantQuota(ops_per_sec=100.0, burst=3.0)})
        cluster.set_tenant("acme")
        replies = [cluster.call("GET", "acme/k", raise_errors=False)
                   for _ in range(6)]
        throttled = [reply for reply in replies
                     if isinstance(reply, RespError)
                     and reply.message.startswith("QUOTAEXCEEDED")]
        assert len(throttled) == 3
        assert gate.counters_of("acme").throttled == 3

    def test_key_quota_enforced_through_the_wire(self):
        cluster, _ = make_tenant_cluster(
            quotas={"acme": TenantQuota(max_keys=2)})
        cluster.set_tenant("acme")
        assert cluster.call("SET", "acme/k0", "v") == SimpleString("OK")
        assert cluster.call("SET", "acme/k1", "v") == SimpleString("OK")
        with pytest.raises(RespError, match="key quota"):
            cluster.call("SET", "acme/k2", "v")
        # Deleting frees the slot again.
        assert cluster.call("DEL", "acme/k0") == 1
        assert cluster.call("SET", "acme/k2", "v") == SimpleString("OK")


class TestMeteredByTheCommandTable:
    @pytest.mark.parametrize("argv", [
        ("HINCRBY", "acme/h", "f", 1),
        ("HMSET", "acme/h", "f", "v"),
        ("HSETNX", "acme/h", "f", "v"),
        ("INCRBYFLOAT", "acme/n", "1.5"),
        ("SETRANGE", "acme/s", 0, "v"),
        ("ZADD", "acme/z", 1, "m"),
        ("ZREM", "acme/z", "m"),
    ], ids=lambda argv: argv[0])
    def test_every_registered_write_bills_as_a_write(self, argv):
        # These seven were missing from the gate's own hand-kept list.
        cluster, gate = make_tenant_cluster()
        cluster.set_tenant("acme")
        cluster.call(*argv)
        cluster.call("HGETALL", "acme/h")
        counters = gate.counters_of("acme")
        assert (counters.write_ops, counters.read_ops) == (1, 1)

    def test_a_flush_bills_as_the_write_it_is(self):
        cluster, gate = make_tenant_cluster()
        cluster.set_tenant("acme")
        for name in ("FLUSHDB", "FLUSHALL"):
            cluster.call(name, shard=0)
        assert gate.counters_of("acme").write_ops == 2

    def test_echo_message_is_not_a_key_to_deny(self):
        cluster, gate = make_tenant_cluster()
        cluster.set_tenant("acme")
        assert cluster.call("ECHO", "hello") == b"hello"
        assert gate.counters_of("acme").denied == 0

    def test_unknown_name_is_namespace_checked_and_billed_a_write(self):
        cluster, gate = make_tenant_cluster()
        cluster.set_tenant("acme")
        with pytest.raises(RespError, match="TENANTDENIED"):
            cluster.call("NOSUCHCMD", "globex/k")
        with pytest.raises(RespError, match="unknown command"):
            cluster.call("NOSUCHCMD", "acme/k")
        counters = gate.counters_of("acme")
        assert (counters.denied, counters.write_ops) == (1, 1)


class TestTenantScopedKeyspace:
    def _populated(self):
        cluster, gate = make_tenant_cluster()
        for tenant in ("acme", "globex"):
            cluster.set_tenant(tenant)
            for number in range(4):
                cluster.call("SET", f"{tenant}/k{number}", "v")
        return cluster

    def test_dbsize_counts_only_the_tenant(self):
        cluster = self._populated()
        cluster.set_tenant("acme")
        total = sum(cluster.call("DBSIZE", shard=shard)
                    for shard in range(len(cluster.nodes)))
        assert total == 4

    def test_keys_filtered_to_the_tenant(self):
        cluster = self._populated()
        cluster.set_tenant("globex")
        seen = []
        for shard in range(len(cluster.nodes)):
            seen.extend(cluster.call("KEYS", "*", shard=shard))
        assert sorted(seen) == [f"globex/k{n}".encode()
                                for n in range(4)]

    def test_scan_filtered_to_the_tenant(self):
        cluster = self._populated()
        cluster.set_tenant("acme")
        seen = []
        for shard in range(len(cluster.nodes)):
            cursor = b"0"
            while True:
                cursor, page = cluster.call(
                    "SCAN", cursor, "COUNT", "100", shard=shard)
                seen.extend(page)
                if cursor == b"0":
                    break
        assert sorted(seen) == [f"acme/k{n}".encode() for n in range(4)]


class TestOpenLoopTenantStreams:
    def test_throttles_counted_apart_from_failures(self):
        clock = SimClock()
        gate = make_gate(
            clock, {"acme": TenantQuota(ops_per_sec=200.0, burst=5.0)})
        cluster = build_cluster(2, clock=clock, tenant_gate=gate)
        spec = WorkloadSpec(name="tenant-mix", read_proportion=0.5,
                            update_proportion=0.5, record_count=20,
                            operation_count=200)
        runner = OpenLoopRunner(cluster, spec, clients=4,
                                arrival_rate=2000.0, seed=11,
                                tenant="acme")
        report = runner.run()
        # A throttled op still completes its round trip -- the error IS
        # the reply -- so completed covers admitted and throttled alike.
        assert report.completed == 200
        assert 0 < report.throttled < 200
        assert report.failures == 0
        # Admitted traffic stayed in the tenant's namespace.
        assert gate.counters_of("acme").denied == 0

    def test_untenanted_stream_unaffected_by_registry(self):
        clock = SimClock()
        gate = make_gate(clock)
        cluster = build_cluster(2, clock=clock, tenant_gate=gate)
        spec = WorkloadSpec(name="plain-mix", read_proportion=0.5,
                            update_proportion=0.5, record_count=20,
                            operation_count=100)
        report = OpenLoopRunner(cluster, spec, clients=2,
                                arrival_rate=2000.0, seed=3).run()
        assert report.completed == 100
        assert report.failures == 0 and report.throttled == 0


class TestMeteringAcrossTheCluster:
    def test_wire_traffic_lands_on_the_sealed_chain(self):
        cluster, gate = make_tenant_cluster()
        pipeline = MeteringPipeline(gate, auto_timer=False)
        cluster.set_tenant("acme")
        for number in range(5):
            cluster.call("SET", f"acme/k{number}", "v")
        cluster.set_tenant("globex")
        cluster.call("SET", "globex/k", "v")
        assert pipeline.flush() == 2
        assert pipeline.verify() == 2
        totals = pipeline.totals_of("acme")
        assert totals["write_ops"] == 5
        assert totals["keys_held"] == 5
