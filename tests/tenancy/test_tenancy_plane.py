"""Tests for the multi-tenant control plane.

The registry (namespaces, quotas), the deterministic token bucket, the
admission gate (namespace / rate / footprint rungs, usage accounting off
the engine streams), one compliance policy per store whatever the
tenant, and the audit-chained metering pipeline.
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
    TenantQuota,
    TenantRegistry,
    TokenBucket,
    tenant_of,
)

GET, SET = spec_of(b"GET"), spec_of(b"SET")


def _meta(owner, **kw):
    return GDPRMetadata(owner=owner, purposes=frozenset({"service"}), **kw)


class TestNamespace:
    def test_qualify_and_strip(self):
        assert tenant_of("acme/user:1") == "acme"
        assert tenant_of("plainkey") is None

    def test_registry_rejects_separator_in_ids(self):
        registry = TenantRegistry()
        with pytest.raises(ValueError):
            registry.register("a/b")
        with pytest.raises(ValueError):
            registry.register("")

    def test_registry_lookup(self):
        registry = TenantRegistry()
        quota = TenantQuota(ops_per_sec=100.0)
        registry.register("acme", quota=quota)
        registry.register("globex")
        assert registry.known("acme")
        assert not registry.known("initech")
        assert registry.quota_of("acme") is quota
        assert registry.quota_of("globex") == TenantQuota()
        assert registry.tenants() == ["acme", "globex"]
        with pytest.raises(UnknownTenantError, match="TENANTUNKNOWN"):
            registry.quota_of("initech")
        # A tenant has a quota, not a compliance policy.
        with pytest.raises(TypeError):
            registry.register("acme", None, quota)

    def test_invalid_quota_is_refused_at_registration(self):
        """Regression: a zero rate used to register, then crash the
        tenant's first request inside the shard with the token bucket's
        ``ValueError``."""
        for bad in ({"ops_per_sec": 0.0}, {"ops_per_sec": -1.0},
                    {"ops_per_sec": 10.0, "burst": 0.0},
                    {"max_keys": -1}, {"max_bytes": -1}):
            with pytest.raises(ValueError, match="quota"):
                TenantQuota(**bad)
        TenantQuota(max_keys=0, max_bytes=0)    # a read-only tenant


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
    """Every compliance decision is the store's ``GDPRConfig``: a key
    inside a tenant's namespace is governed exactly like any other."""

    def _store(self, **config):
        return GDPRStore(config=GDPRConfig(**config), keystore=KeyStore())

    def test_default_ttl_override(self):
        with pytest.raises(ImportError):
            from repro.tenancy import TenantPolicy  # noqa: F401
        # Retention is the record's declared TTL, tenant or not.
        with pytest.raises(TypeError):
            GDPRConfig(default_ttl=3600.0)
        store = self._store()
        store.put("acme/k", b"v", _meta("acme/alice"))
        store.put("acme/t", b"v", _meta("acme/alice", ttl=30.0))
        assert store.get("acme/k").metadata.ttl is None
        assert store.get("acme/t").metadata.ttl == 30.0

    def test_region_pin_refuses_foreign_node(self):
        # Residency is the record's own allowed_regions (Art. 46).
        store = self._store()               # node region: eu-west
        with pytest.raises(LocationViolationError):
            store.put("acme/k", b"v", _meta(
                "acme/alice", allowed_regions=frozenset({"eu-central"})))
        store.put("globex/k", b"v", _meta("globex/alice"))   # unpinned

    def test_audit_opt_out_keeps_tenant_off_the_chain(self):
        store = self._store()
        store.put("quiet/k", b"v", _meta("quiet/alice"))
        store.put("loud/k", b"v", _meta("loud/alice"))
        store.get("quiet/k")
        store.get("loud/k")
        subjects = [record.subject for record in store.audit.records()]
        assert subjects.count("loud/alice") == 2
        assert subjects.count("quiet/alice") == 2

    def test_encryption_opt_out_stores_plaintext_envelopes(self):
        sealed = self._store()
        sealed.put("open/k", b"plaintext-value", _meta("open/alice"))
        assert b"plaintext-value" not in sealed.kv.execute("GET", "open/k")
        assert sealed.get("open/k").value == b"plaintext-value"
        # Only the store's own switch writes plaintext envelopes.
        plain = self._store(encrypt_at_rest=False)
        plain.put("open/k", b"plaintext-value", _meta("open/alice"))
        assert b"plaintext-value" in plain.kv.execute("GET", "open/k")
        assert plain.rebuild_indexes() == 1

    def test_per_tenant_fast_gdpr_builds_writebehind_on_demand(self):
        strict = self._store()
        assert strict._writebehind is None
        with pytest.raises(AttributeError):
            strict.attach_tenant_policies(TenantRegistry())
        fast = self._store(fast_gdpr=True)
        fast.put("fast/k", b"v", _meta("fast/alice"))
        fast.put("strict/k", b"v", _meta("strict/alice"))
        assert fast._writebehind.pending == 2
        fast.flush_compliance()
        assert fast.get("fast/k").value == b"v"
        assert fast.get("strict/k").value == b"v"


class TestMetering:
    def _pipeline(self):
        registry, gate, clock = make_gate(ops_per_sec=1000.0)
        pipeline = MeteringPipeline(gate, clock=clock)
        pipeline.stop_timer()               # rounds flush by hand
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
        acme = [r for r in pipeline.audit.records() if r.subject == "acme"]
        assert len(acme) == 2
        assert all(r.operation == "usage-report" for r in acme)

    def test_tampered_chain_fails_verification(self):
        gate, pipeline, _ = self._pipeline()
        self._traffic(gate, "acme", 4)
        pipeline.flush()
        data = pipeline.audit.log.read_all()
        # The report detail is JSON inside a member's string field, so
        # "ops" arrives escaped once on the wire.
        forged = data.replace(b'\\"ops\\":4', b'\\"ops\\":1')
        assert forged != data               # the edit really landed
        # Swap the forgery in as a file replacement is done on a device:
        # a new file, made durable, renamed over the old name.
        log = pipeline.audit.log
        log.open(log.name + ".forged")
        log.append(forged)
        log.flush_and_fsync()
        log.rename(log.name)
        assert log.read_all() == forged
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
        with pytest.raises(ImportError):
            from repro.tenancy import TenantStore  # noqa: F401
        # A tenant's records are qualified names on the shared store.
        base = GDPRStore(config=GDPRConfig(), keystore=KeyStore())
        key = "acme/user:1"
        base.put(key, b"v", _meta("acme/alice"))
        record = base.get(key)
        assert record.key == "acme/user:1"
        assert record.value == b"v"
        assert record.metadata.owner == "acme/alice"
        assert base.live_keys_with_prefix("acme/") \
            == [b"acme/user:1"]
        assert base.delete(key)
        assert base.live_keys_with_prefix("acme/") == []
