"""Tests for the multi-tenant control plane.

The registry (namespaces, policies, quotas), the deterministic token
bucket, the admission gate (namespace / rate / footprint rungs, usage
accounting off the engine streams), per-tenant GDPR policy overrides in
the store layer, and the audit-chained metering pipeline.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    AuditError,
    LocationViolationError,
    QuotaExceededError,
    TenantAccessError,
    UnknownTenantError,
)
from repro.crypto.keystore import KeyStore
from repro.gdpr import GDPRMetadata
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.commands import spec_of
from repro.tenancy import (
    MeteringPipeline,
    TenantGate,
    TenantPolicy,
    TenantQuota,
    TenantRegistry,
    TenantStore,
    TokenBucket,
    key_prefix,
    local_name,
    qualify_key,
    qualify_subject,
    tenant_of,
)

GET, SET = spec_of(b"GET"), spec_of(b"SET")


def _meta(owner, **kw):
    return GDPRMetadata(owner=owner, purposes=frozenset({"service"}), **kw)


class TestNamespace:
    def test_qualify_and_strip(self):
        assert qualify_key("acme", "user:1") == "acme/user:1"
        assert qualify_subject("acme", "alice") == "acme/alice"
        assert key_prefix("acme") == "acme/"
        assert tenant_of("acme/user:1") == "acme"
        assert tenant_of("plainkey") is None
        assert local_name("acme", "acme/user:1") == "user:1"
        with pytest.raises(ValueError):
            local_name("acme", "globex/user:1")

    def test_registry_rejects_separator_in_ids(self):
        registry = TenantRegistry()
        with pytest.raises(ValueError):
            registry.register("a/b")
        with pytest.raises(ValueError):
            registry.register("")

    def test_registry_lookup(self):
        registry = TenantRegistry()
        policy = TenantPolicy(default_ttl=60.0)
        quota = TenantQuota(ops_per_sec=100.0)
        registry.register("acme", policy, quota)
        assert registry.known("acme")
        assert not registry.known("globex")
        assert registry.policy_of("acme") is policy
        assert registry.quota_of("acme") is quota
        assert registry.tenants() == ["acme"]
        with pytest.raises(UnknownTenantError, match="TENANTUNKNOWN"):
            registry.require("globex")
        assert registry.policy_for_key("acme/k") is policy
        assert registry.policy_for_key("globex/k") is None
        assert registry.policy_for_key("plainkey") is None


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, capacity=5.0, now=0.0)
        assert all(bucket.try_take(0.0) for _ in range(5))
        assert not bucket.try_take(0.0)             # burst spent
        assert bucket.try_take(0.1)                 # 1 token refilled
        assert not bucket.try_take(0.1)

    def test_capacity_caps_refill(self):
        bucket = TokenBucket(rate=10.0, capacity=2.0, now=0.0)
        bucket.try_take(0.0)
        assert bucket.tokens == 1.0
        bucket.try_take(100.0)                      # long idle gap
        assert bucket.tokens == 1.0                 # capped at 2, took 1

    def test_deterministic_across_runs(self):
        def run():
            bucket = TokenBucket(rate=3.0, capacity=3.0, now=0.0)
            return [bucket.try_take(t * 0.1) for t in range(40)]

        assert run() == run()


def make_gate(**quota_kw):
    registry = TenantRegistry()
    registry.register("acme", quota=TenantQuota(**quota_kw))
    registry.register("globex")
    clock = SimClock()
    return registry, TenantGate(registry, clock), clock


class TestGateAdmission:
    def test_unknown_tenant_refused(self):
        _, gate, _ = make_gate()
        with pytest.raises(UnknownTenantError):
            gate.admit("nobody", GET, [b"GET", b"nobody/k"],
                       [b"nobody/k"], 0.0)

    def test_namespace_violation_denied(self):
        _, gate, _ = make_gate()
        with pytest.raises(TenantAccessError, match="TENANTDENIED"):
            gate.admit("acme", GET, [b"GET", b"globex/k"],
                       [b"globex/k"], 0.0)
        assert gate.counters_of("acme").denied == 1

    def test_rate_quota_throttles(self):
        _, gate, _ = make_gate(ops_per_sec=100.0, burst=2.0)
        argv, keys = [b"GET", b"acme/k"], [b"acme/k"]
        gate.admit("acme", GET, argv, keys, 0.0)
        gate.admit("acme", GET, argv, keys, 0.0)
        with pytest.raises(QuotaExceededError, match="QUOTAEXCEEDED"):
            gate.admit("acme", GET, argv, keys, 0.0)
        assert gate.counters_of("acme").throttled == 1
        # Tokens return with simulated time.
        gate.admit("acme", GET, argv, keys, 0.02)

    def test_unlimited_tenant_never_throttles(self):
        _, gate, _ = make_gate()
        for _ in range(1000):
            gate.admit("globex", GET, [b"GET", b"globex/k"],
                       [b"globex/k"], 0.0)
        assert gate.counters_of("globex").ops == 1000

    def test_counters_classify_reads_and_writes(self):
        _, gate, _ = make_gate()
        gate.admit("acme", GET, [b"GET", b"acme/k"], [b"acme/k"], 0.0)
        gate.admit("acme", SET, [b"SET", b"acme/k", b"v"],
                   [b"acme/k"], 0.0)
        counters = gate.counters_of("acme")
        assert counters.ops == 2
        assert counters.read_ops == 1 and counters.write_ops == 1
        assert counters.bytes_in > 0


class TestGateFootprint:
    def _gate_with_store(self, **quota_kw):
        from repro.kvstore import KeyValueStore, StoreConfig
        registry, gate, clock = make_gate(**quota_kw)
        store = KeyValueStore(StoreConfig(), clock=clock)
        gate.watch_store(store)
        return gate, store

    def test_max_keys_enforced(self):
        gate, store = self._gate_with_store(max_keys=2)
        for number in range(2):
            argv = [b"SET", f"acme/k{number}".encode(), b"v"]
            gate.admit("acme", SET, argv, [argv[1]], 0.0)
            store.execute(*argv)
        argv = [b"SET", b"acme/k2", b"v"]
        with pytest.raises(QuotaExceededError, match="key quota"):
            gate.admit("acme", SET, argv, [argv[1]], 0.0)
        # Overwrites of an existing key stay admissible.
        argv = [b"SET", b"acme/k0", b"v2"]
        gate.admit("acme", SET, argv, [argv[1]], 0.0)

    def test_max_bytes_enforced_and_released_on_delete(self):
        gate, store = self._gate_with_store(max_bytes=10)
        argv = [b"SET", b"acme/k", b"12345678"]
        gate.admit("acme", SET, argv, [argv[1]], 0.0)
        store.execute(*argv)
        assert gate.bytes_used("acme") == 8
        over = [b"SET", b"acme/k2", b"456"]
        with pytest.raises(QuotaExceededError, match="byte quota"):
            gate.admit("acme", SET, over, [over[1]], 0.0)
        store.execute("DEL", "acme/k")
        assert gate.bytes_used("acme") == 0
        gate.admit("acme", SET, over, [over[1]], 0.0)

    def test_usage_follows_each_write_by_its_effect(self):
        gate, store = self._gate_with_store(max_keys=3)
        store.execute("HSET", "acme/h", "f", "v")
        store.execute("INCR", "acme/n")
        store.execute("APPEND", "acme/s", "abc")
        assert gate.key_count("acme") == 3
        assert gate.bytes_used("acme") == 3
        incr = [b"INCR", b"acme/m"]
        with pytest.raises(QuotaExceededError, match="key quota"):
            gate.admit("acme", spec_of(b"INCR"), incr, incr[1:], 0.0)
        # A delete passes at quota, even naming a key it does not hold.
        argv = [b"DEL", b"acme/s", b"acme/ghost"]
        gate.admit("acme", spec_of(b"DEL"), argv, argv[1:], 0.0)
        # A write whose effect removes its key holds nothing.
        store.execute("HDEL", "acme/h", "f")
        store.clock.advance(1.0)
        store.execute("SET", "acme/n", "v", "PXAT", 1)
        assert gate.key_count("acme") == 1
        assert gate.bytes_used("acme") == 3

    def test_usage_tracks_expiry_and_direct_writes(self):
        gate, store = self._gate_with_store(max_bytes=100)
        # A direct (bench-preload-style) write is metered too: usage
        # rides the engine's write stream, not the request path.
        store.execute("SET", "acme/k", "vvvv")
        assert gate.key_count("acme") == 1
        assert gate.bytes_used("acme") == 4
        store.execute("PEXPIRE", "acme/k", 50)
        store.clock.advance(1.0)
        assert store.execute("GET", "acme/k") is None   # lazy expire
        assert gate.key_count("acme") == 0
        assert gate.bytes_used("acme") == 0


class TestPerTenantPolicies:
    def _store(self, registry, config=None):
        store = GDPRStore(config=config or GDPRConfig(),
                          keystore=KeyStore())
        store.attach_tenant_policies(registry)
        return store

    def test_default_ttl_override(self):
        registry = TenantRegistry()
        registry.register("acme", TenantPolicy(default_ttl=30.0))
        # The tenant default is the last retention step: a key outside
        # every tenant keeps no TTL (there is no store-wide default).
        with pytest.raises(TypeError):
            GDPRConfig(default_ttl=3600.0)
        store = self._store(registry)
        store.put("acme/k", b"v", _meta("acme/alice"))
        store.put("plain-k", b"v", _meta("bob"))
        assert store.get("acme/k").metadata.ttl == 30.0
        assert store.get("plain-k").metadata.ttl is None

    def test_region_pin_refuses_foreign_node(self):
        registry = TenantRegistry()
        registry.register("acme", TenantPolicy(region="eu-central"))
        registry.register("globex")
        store = self._store(registry)       # node region: eu-west
        with pytest.raises(LocationViolationError):
            store.put("acme/k", b"v", _meta("acme/alice"))
        store.put("globex/k", b"v", _meta("globex/alice"))   # unpinned

    def test_audit_opt_out_keeps_tenant_off_the_chain(self):
        registry = TenantRegistry()
        registry.register("quiet", TenantPolicy(audit_enabled=False))
        registry.register("loud")
        store = self._store(registry)
        store.put("quiet/k", b"v", _meta("quiet/alice"))
        store.put("loud/k", b"v", _meta("loud/alice"))
        store.get("quiet/k")
        store.get("loud/k")
        subjects = [record.subject for record in store.audit.records()]
        assert "loud/alice" in subjects
        assert "quiet/alice" not in subjects

    def test_encryption_opt_out_stores_plaintext_envelopes(self):
        registry = TenantRegistry()
        registry.register("open", TenantPolicy(encryption_required=False))
        registry.register("sealed")
        store = self._store(registry)
        store.put("open/k", b"plaintext-value", _meta("open/alice"))
        store.put("sealed/k", b"secret-value", _meta("sealed/alice"))
        raw_open = store.kv.execute("GET", "open/k")
        raw_sealed = store.kv.execute("GET", "sealed/k")
        assert b"plaintext-value" in raw_open
        assert b"secret-value" not in raw_sealed
        # Both read back identically through the facade.
        assert store.get("open/k").value == b"plaintext-value"
        assert store.get("sealed/k").value == b"secret-value"

    def test_per_tenant_fast_gdpr_builds_writebehind_on_demand(self):
        registry = TenantRegistry()
        registry.register("fast", TenantPolicy(fast_gdpr=True))
        registry.register("strict")
        store = GDPRStore(config=GDPRConfig(), keystore=KeyStore())
        assert store._writebehind is None
        store.attach_tenant_policies(registry)
        assert store._writebehind is not None
        store.put("fast/k", b"v", _meta("fast/alice"))
        store.put("strict/k", b"v", _meta("strict/alice"))
        store.flush_compliance()
        assert store.get("fast/k").value == b"v"
        assert store.get("strict/k").value == b"v"


class TestMetering:
    def _pipeline(self):
        registry, gate, clock = make_gate(ops_per_sec=1000.0)
        pipeline = MeteringPipeline(gate, clock=clock, auto_timer=False)
        return gate, pipeline, clock

    def _traffic(self, gate, tenant, ops, at=0.0):
        for _ in range(ops):
            gate.admit(tenant, GET, [b"GET", f"{tenant}/k".encode()],
                       [f"{tenant}/k".encode()], at)

    def test_reports_are_deltas_per_interval(self):
        gate, pipeline, clock = self._pipeline()
        self._traffic(gate, "acme", 5)
        assert pipeline.flush() == 1
        self._traffic(gate, "acme", 3, at=0.1)
        clock.advance(1.0)
        assert pipeline.flush() == 1
        deltas = [report["ops"] for _, name, report in pipeline.reports
                  if name == "acme"]
        assert deltas == [5, 3]
        assert pipeline.totals_of("acme")["ops"] == 8

    def test_idle_tenants_emit_nothing(self):
        gate, pipeline, _ = self._pipeline()
        self._traffic(gate, "acme", 2)
        assert pipeline.flush() == 1        # acme only; globex is idle
        assert pipeline.flush() == 0        # nothing changed since

    def test_chain_verifies_and_indexes_by_tenant(self):
        gate, pipeline, clock = self._pipeline()
        self._traffic(gate, "acme", 4)
        self._traffic(gate, "globex", 2)
        pipeline.flush()
        clock.advance(1.0)
        self._traffic(gate, "acme", 1, at=clock.now())
        pipeline.flush()
        assert pipeline.verify() == 3       # 2 + 1 sealed reports
        acme = pipeline.records_for("acme")
        assert len(acme) == 2
        assert all(r.operation == "usage-report" for r in acme)

    def test_tampered_chain_fails_verification(self):
        gate, pipeline, _ = self._pipeline()
        self._traffic(gate, "acme", 4)
        pipeline.flush()
        data = pipeline.audit.log.read_all()
        # The report detail is JSON nested twice (record inside block
        # member), so "ops" arrives triple-escaped on the wire.
        forged = data.replace(b'\\\\\\"ops\\\\\\":4',
                              b'\\\\\\"ops\\\\\\":1')
        assert forged != data               # the edit really landed
        pipeline.audit.log.replace(forged)
        with pytest.raises(AuditError):
            pipeline.verify()

    def test_daemon_timer_seals_rounds(self):
        registry, gate, clock = make_gate()
        pipeline = MeteringPipeline(gate, clock=clock, interval=0.5)
        self._traffic(gate, "globex", 3)
        clock.schedule_after(1.2, lambda: None, label="work")
        clock.run_until_idle()
        pipeline.stop_timer()
        assert pipeline.reports
        assert pipeline.verify() >= 1


class TestTenantStoreView:
    def test_put_get_delete_round_trip(self):
        base = GDPRStore(config=GDPRConfig(), keystore=KeyStore())
        view = TenantStore(base, "acme")
        view.put("user:1", b"v", _meta("alice"))
        record = view.get("user:1")
        assert record.key == "user:1"           # local name on the way out
        assert record.value == b"v"
        assert record.metadata.owner == "acme/alice"
        assert base.get("acme/user:1").value == b"v"
        assert view.delete("user:1")
        assert view.keys() == []
