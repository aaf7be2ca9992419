"""Tests for PolicyEngine integration in GDPRStore."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import RetentionViolationError
from repro.gdpr import (
    GDPRConfig,
    GDPRMetadata,
    GDPRStore,
    RetentionPolicy,
)
from repro.kvstore import KeyValueStore, StoreConfig


def make_store(*policies):
    """A store whose own policy engine holds ``policies``."""
    clock = SimClock()
    kv = KeyValueStore(
        StoreConfig(appendonly=True, expiry_strategy="indexed"),
        clock=clock)
    store = GDPRStore(kv=kv, config=GDPRConfig())
    for policy in policies:
        store.policies.set_policy(policy)
    return store, clock


def meta(purposes=("billing",), ttl=None):
    return GDPRMetadata(owner="alice", purposes=frozenset(purposes),
                        ttl=ttl)


class TestPutIntegration:
    def test_ttl_derived_from_policy(self):
        store, _ = make_store(RetentionPolicy("billing", 600.0))
        store.put("k", b"v", meta())
        assert store.get("k").metadata.ttl == 600.0
        assert 595 <= store.kv.execute("TTL", "k") <= 600

    def test_tightest_policy_wins(self):
        store, _ = make_store(RetentionPolicy("billing", 600.0),
                              RetentionPolicy("ads", 60.0))
        store.put("k", b"v", meta(purposes=("billing", "ads")))
        assert store.get("k").metadata.ttl == 60.0

    def test_excessive_declared_ttl_rejected(self):
        store, _ = make_store(RetentionPolicy("billing", 60.0))
        with pytest.raises(RetentionViolationError):
            store.put("k", b"v", meta(ttl=3600.0))

    def test_no_policy_means_no_derived_ttl(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        assert store.get("k").metadata.ttl is None


class TestPolicySweep:
    def test_sweep_erases_stale_records(self):
        # Records written before a policy tightening carry stale TTLs;
        # the sweep catches them.
        store, clock = make_store()
        store.put("old", b"v", meta(ttl=10_000.0))
        store.policies.set_policy(RetentionPolicy("billing", 100.0))
        clock.advance(200.0)
        erased = store.sweep_policies()
        assert erased == ["old"]
        with pytest.raises(KeyError):
            store.get("old")

    def test_sweep_respects_legal_hold(self):
        store, clock = make_store()
        store.put("held", b"v", meta(ttl=10_000.0))
        store.policies.set_policy(RetentionPolicy("billing", 100.0))
        store.policies.place_legal_hold("held")
        clock.advance(200.0)
        assert store.sweep_policies() == []
        assert store.get("held").value == b"v"

    def test_sweep_audited(self):
        store, clock = make_store()
        store.put("old", b"v", meta(ttl=10_000.0))
        store.policies.set_policy(RetentionPolicy("billing", 100.0))
        clock.advance(200.0)
        store.sweep_policies()
        assert any(r.operation == "policy-erase"
                   for r in store.audit.records())

    def test_sweep_noop_when_compliant(self):
        store, clock = make_store()
        store.policies.set_policy(RetentionPolicy("billing", 1000.0))
        store.put("fresh", b"v", meta())
        clock.advance(10.0)
        assert store.sweep_policies() == []
