"""Retention is the record's declared TTL, enforced by the engine.

There is no purpose-retention engine and no legal hold: ``repro.gdpr.
policy`` is gone.  A record's retention is its own ``ttl`` (GDPR Art.
5.1e), the engine's expiry erases it, and nothing derives, caps or
suspends a deadline.  The tests below keep their names: a check of the
deleted engine either asserts that its name is refused, or makes the
same point about the store's declared-TTL retention.
"""

import importlib

import pytest

from repro.common import errors
from repro.common.clock import SimClock
from repro.gdpr import GDPRConfig, GDPRStore
from repro.gdpr.metadata import GDPRMetadata
from repro.kvstore import KeyValueStore, StoreConfig


def meta(purposes=("billing",), ttl=None, created_at=0.0):
    return GDPRMetadata(owner="alice", purposes=frozenset(purposes),
                        ttl=ttl, created_at=created_at)


def make_store():
    clock = SimClock()
    kv = KeyValueStore(
        StoreConfig(appendonly=True, expiry_strategy="indexed"),
        clock=clock)
    return GDPRStore(kv=kv, config=GDPRConfig()), clock


class TestPolicyAdministration:
    def test_set_and_get(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.gdpr.policy")

    def test_remove(self):
        with pytest.raises(ImportError):
            from repro.gdpr import PolicyEngine  # noqa: F401

    def test_policies_sorted(self):
        with pytest.raises(ImportError):
            from repro.gdpr import RetentionPolicy  # noqa: F401

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            meta(ttl=0.0)


class TestEffectiveRetention:
    def test_no_policy_no_ttl(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        assert store.get("k").metadata.ttl is None
        assert store.kv.execute("TTL", "k") == -1

    def test_policy_bound_applies(self):
        store, _ = make_store()
        with pytest.raises(AttributeError):
            store.policies

    def test_minimum_across_purposes(self):
        store, _ = make_store()
        store.put("k", b"v", meta(purposes=("billing", "ads"), ttl=10.0))
        assert store.get("k").metadata.ttl == 10.0
        assert 9 <= store.kv.execute("TTL", "k") <= 10

    def test_declared_ttl_can_tighten(self):
        store, clock = make_store()
        store.put("k", b"v", meta(ttl=5.0))
        assert store.get("k").metadata.ttl == 5.0
        clock.advance(6.0)
        with pytest.raises(KeyError):
            store.get("k")

    def test_default_retention_fallback(self):
        store, _ = make_store()
        store.put("k", b"v", meta(purposes=("unmapped",)))
        assert store.get("k").metadata.ttl is None


class TestValidation:
    def test_ttl_over_bound_rejected(self):
        assert not hasattr(errors, "RetentionViolationError")

    def test_missing_ttl_under_policy_rejected(self):
        store, _ = make_store()
        store.put("k", b"v", meta(ttl=None))
        assert store.get("k").value == b"v"

    def test_compliant_ttl_passes(self):
        store, _ = make_store()
        store.put("k", b"v", meta(ttl=50.0))
        assert 49 <= store.kv.execute("TTL", "k") <= 50

    def test_unmapped_purpose_unconstrained(self):
        store, _ = make_store()
        store.put("k", b"v", meta(purposes=("anything",), ttl=1e9))
        assert store.get("k").metadata.ttl == 1e9


class TestOverdueSweep:
    def test_overdue_detection(self):
        store, clock = make_store()
        store.put("old", b"v", meta(ttl=100.0))
        clock.advance(50.0)
        store.put("new", b"v", meta(ttl=100.0))
        clock.advance(60.0)
        store.tick()
        assert store.kv.execute("EXISTS", "old", "new") == 1
        assert store.get("new").value == b"v"

    def test_unbounded_never_overdue(self):
        store, clock = make_store()
        store.put("k", b"v", meta())
        clock.advance(1e6)
        store.tick()
        assert store.get("k").value == b"v"

    def test_legal_hold_suspends_erasure(self):
        store, _ = make_store()
        with pytest.raises(AttributeError):
            store.sweep_policies

    def test_released_hold_resumes(self):
        store, clock = make_store()
        store.put("k", b"v", meta(ttl=10.0))
        clock.advance(100.0)
        store.tick()
        assert "k" not in store.index
        assert any(record.operation == "expire-erase"
                   for record in store.audit.records())

    def test_held_keys_listed(self):
        with pytest.raises(ImportError):
            from repro.gdpr.store import PolicyEngine  # noqa: F401
