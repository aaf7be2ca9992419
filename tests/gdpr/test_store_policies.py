"""A GDPRStore's retention is each record's declared TTL.

The store keeps no policy engine: no purpose derives or caps a TTL, and
there is no policy sweep beside the engine's expiry.  The tests keep
their names; a check of a deleted entry point asserts that it is
refused.
"""

import pytest

from repro.common.clock import SimClock
from repro.gdpr import GDPRConfig, GDPRMetadata, GDPRStore
from repro.kvstore import KeyValueStore, StoreConfig


def make_store():
    clock = SimClock()
    kv = KeyValueStore(
        StoreConfig(appendonly=True, expiry_strategy="indexed"),
        clock=clock)
    return GDPRStore(kv=kv, config=GDPRConfig()), clock


def meta(purposes=("billing",), ttl=None):
    return GDPRMetadata(owner="alice", purposes=frozenset(purposes),
                        ttl=ttl)


class TestPutIntegration:
    def test_ttl_derived_from_policy(self):
        store, _ = make_store()
        assert not hasattr(store, "policies")
        store.put("k", b"v", meta())
        assert store.kv.execute("TTL", "k") == -1

    def test_tightest_policy_wins(self):
        store, _ = make_store()
        store.put("k", b"v", meta(purposes=("billing", "ads"), ttl=60.0))
        assert store.get("k").metadata.ttl == 60.0

    def test_excessive_declared_ttl_rejected(self):
        store, _ = make_store()
        store.put("k", b"v", meta(ttl=3600.0))
        assert 3595 <= store.kv.execute("TTL", "k") <= 3600

    def test_no_policy_means_no_derived_ttl(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        assert store.get("k").metadata.ttl is None


class TestPolicySweep:
    def test_sweep_erases_stale_records(self):
        store, _ = make_store()
        with pytest.raises(AttributeError):
            store.sweep_policies()

    def test_sweep_respects_legal_hold(self):
        store, clock = make_store()
        store.put("held", b"v", meta(ttl=10_000.0))
        clock.advance(200.0)
        store.tick()
        assert store.get("held").value == b"v"

    def test_sweep_audited(self):
        store, clock = make_store()
        store.put("old", b"v", meta(ttl=100.0))
        clock.advance(200.0)
        store.tick()
        operations = [r.operation for r in store.audit.records()]
        assert "expire-erase" in operations
        assert "policy-erase" not in operations

    def test_sweep_noop_when_compliant(self):
        store, clock = make_store()
        store.put("fresh", b"v", meta(ttl=1000.0))
        clock.advance(10.0)
        store.tick()
        assert store.get("fresh").value == b"v"
