"""Integration tests for tenancy at the cluster boundary.

TENANT connection stamping over RESP, admission errors on the wire
(TENANTUNKNOWN / TENANTDENIED / QUOTAEXCEEDED), tenant-scoped keyspace
commands, GDPR fan-out isolation through sharded stores, and the
open-loop driver's per-tenant streams.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.resp import RespError, SimpleString
from repro.cluster import SlotMigrator, build_cluster
from repro.cluster.slots import slot_for_key
from repro.tenancy import (
    MeteringPipeline,
    TenantGate,
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


def stamp(cluster, tenant):
    """Stamp every shard connection of ``cluster`` with ``tenant``."""
    for shard in range(len(cluster.nodes)):
        cluster.call("TENANT", tenant, shard=shard)


class TestTenantStamping:
    def test_tenant_command_scopes_the_connection(self):
        cluster, _ = make_tenant_cluster()
        stamp(cluster, "acme")
        assert cluster.call("SET", "acme/k", "v") == SimpleString("OK")
        assert cluster.call("GET", "acme/k") == b"v"

    def test_unknown_tenant_refused_at_stamp_time(self):
        cluster, _ = make_tenant_cluster()
        with pytest.raises(RespError, match="TENANTUNKNOWN"):
            cluster.call("TENANT", "nobody", shard=0)

    def test_foreign_namespace_denied(self):
        cluster, gate = make_tenant_cluster()
        stamp(cluster, "acme")
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
        stamp(cluster, "acme")
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
        stamp(cluster, "acme")
        assert cluster.call("SET", "acme/k0", "v") == SimpleString("OK")
        assert cluster.call("SET", "acme/k1", "v") == SimpleString("OK")
        with pytest.raises(RespError, match="key quota"):
            cluster.call("SET", "acme/k2", "v")
        # Deleting frees the slot again.
        assert cluster.call("DEL", "acme/k0") == 1
        assert cluster.call("SET", "acme/k2", "v") == SimpleString("OK")


class TestKeyQuotaByEffect:
    @pytest.mark.parametrize("argv", [
        ("INCR", "acme/n{}"),
        ("HSET", "acme/n{}", "f", "v"),
        ("HMSET", "acme/n{}", "f", "v"),
        ("ZADD", "acme/n{}", 1, "m"),
    ], ids=lambda argv: argv[0])
    def test_a_key_any_write_creates_counts(self, argv):
        """Regression: only SET-shaped names were counted, so five INCRs
        under a two-key quota left ``key_count`` at 0 and two more SETs
        were admitted (seven keys held)."""
        cluster, gate = make_tenant_cluster(
            quotas={"acme": TenantQuota(max_keys=2)})
        stamp(cluster, "acme")
        replies = [cluster.call(argv[0], argv[1].format(number), *argv[2:],
                                raise_errors=False)
                   for number in range(5)]
        refused = [reply for reply in replies
                   if isinstance(reply, RespError)]
        assert len(refused) == 3
        assert all("key quota" in reply.message for reply in refused)
        assert gate.key_count("acme") == 2
        with pytest.raises(RespError, match="key quota"):
            cluster.call("SET", "acme/k", "v")
        # A write to a key the tenant holds stays admissible.
        cluster.call(argv[0], argv[1].format(0), *argv[2:])

    def test_slot_migration_keeps_the_key_metered_once(self):
        """Regression: the target's RESTORE metered the DUMP payload
        (22 bytes) and the source's handoff DEL then released the key,
        leaving 0 keys and 0 bytes for a key still served -- and room
        for a fourth key under a three-key quota."""
        cluster, gate = make_tenant_cluster(
            quotas={"acme": TenantQuota(max_keys=3)})
        stamp(cluster, "acme")
        cluster.call("SET", "acme/k", "vvvv")
        assert (gate.key_count("acme"), gate.bytes_used("acme")) == (1, 4)
        slot = slot_for_key(b"acme/k")
        source = cluster.slots.shard_of_slot(slot)
        SlotMigrator(cluster, slot, 1 - source).run()
        assert cluster.call("GET", "acme/k") == b"vvvv"
        assert (gate.key_count("acme"), gate.bytes_used("acme")) == (1, 4)
        cluster.call("SET", "acme/k1", "v")
        cluster.call("SET", "acme/k2", "v")
        with pytest.raises(RespError, match="key quota"):
            cluster.call("SET", "acme/k3", "v")
        # Erasing the moved key still releases it.
        assert cluster.call("DEL", "acme/k") == 1
        assert (gate.key_count("acme"), gate.bytes_used("acme")) == (2, 2)

    def test_aborted_migration_keeps_the_key_metered(self):
        cluster, gate = make_tenant_cluster(
            quotas={"acme": TenantQuota(max_keys=3)})
        stamp(cluster, "acme")
        cluster.call("SET", "acme/k", "vvvv")
        slot = slot_for_key(b"acme/k")
        source = cluster.slots.shard_of_slot(slot)
        migrator = SlotMigrator(cluster, slot, 1 - source)
        migrator.step(1)
        migrator.abort()            # drops the target's shadow copy
        assert cluster.call("GET", "acme/k") == b"vvvv"
        assert (gate.key_count("acme"), gate.bytes_used("acme")) == (1, 4)


class TestMeteredByTheCommandTable:
    @pytest.mark.parametrize("argv", [
        ("HSET", "acme/h", "f", "v"),
        ("HMSET", "acme/h", "f", "v"),
        ("INCR", "acme/n"),
        ("APPEND", "acme/s", "v"),
        ("PEXPIRE", "acme/s", 100),
        ("ZADD", "acme/z", 1, "m"),
        ("ZREM", "acme/z", "m"),
    ], ids=lambda argv: argv[0])
    def test_every_registered_write_bills_as_a_write(self, argv):
        # Billing reads the command table, not a hand-kept list.
        cluster, gate = make_tenant_cluster()
        stamp(cluster, "acme")
        cluster.call(*argv)
        cluster.call("HGETALL", "acme/h")
        counters = gate.counters_of("acme")
        assert (counters.write_ops, counters.read_ops) == (1, 1)

    def test_a_flush_bills_as_the_write_it_is(self):
        cluster, gate = make_tenant_cluster()
        stamp(cluster, "acme")
        for name in ("FLUSHDB", "FLUSHALL"):
            cluster.call(name, shard=0)
        assert gate.counters_of("acme").write_ops == 2

    def test_echo_message_is_not_a_key_to_deny(self):
        cluster, gate = make_tenant_cluster()
        stamp(cluster, "acme")
        assert cluster.call("PING", "hello") == b"hello"
        assert gate.counters_of("acme").denied == 0

    def test_unknown_name_is_namespace_checked_and_billed_a_write(self):
        cluster, gate = make_tenant_cluster()
        stamp(cluster, "acme")
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
            stamp(cluster, tenant)
            for number in range(4):
                cluster.call("SET", f"{tenant}/k{number}", "v")
        return cluster

    def test_dbsize_counts_only_the_tenant(self):
        cluster = self._populated()
        stamp(cluster, "acme")
        total = sum(cluster.call("DBSIZE", shard=shard)
                    for shard in range(len(cluster.nodes)))
        assert total == 4

    def test_keys_filtered_to_the_tenant(self):
        cluster = self._populated()
        stamp(cluster, "globex")
        seen = []
        for shard in range(len(cluster.nodes)):
            seen.extend(cluster.call("KEYS", "*", shard=shard))
        assert sorted(seen) == [f"globex/k{n}".encode()
                                for n in range(4)]

    def test_scan_filtered_to_the_tenant(self):
        cluster = self._populated()
        stamp(cluster, "acme")
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
        pipeline = MeteringPipeline(gate)
        pipeline.stop_timer()               # rounds flush by hand
        stamp(cluster, "acme")
        for number in range(5):
            cluster.call("SET", f"acme/k{number}", "v")
        stamp(cluster, "globex")
        cluster.call("SET", "globex/k", "v")
        assert pipeline.flush() == 2
        assert pipeline.verify() == 2
        totals = pipeline.totals_of("acme")
        assert totals["write_ops"] == 5
        assert totals["keys_held"] == 5
