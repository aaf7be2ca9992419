"""Tests for the GDPRStore facade."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    AccessDeniedError,
    LocationViolationError,
    PurposeViolationError,
    UnknownSubjectError,
)
from repro.gdpr import (
    AuditDurability,
    GDPRConfig,
    GDPRMetadata,
    GDPRStore,
    Operation,
    Principal,
    right_of_access,
)
from repro.kvstore import KeyValueStore, StoreConfig


def make_store(clock=None, kv_config=None, **gdpr_kwargs):
    clock = clock if clock is not None else SimClock()
    kv_config = kv_config if kv_config is not None else StoreConfig(
        appendonly=True, aof_log_reads=True, expiry_strategy="fullscan")
    kv = KeyValueStore(kv_config, clock=clock)
    return GDPRStore(kv=kv, config=GDPRConfig(**gdpr_kwargs)), clock


def meta(owner="alice", purposes=("billing",), **kwargs):
    return GDPRMetadata(owner=owner, purposes=frozenset(purposes),
                        **kwargs)


class TestPutGet:
    def test_roundtrip(self):
        store, _ = make_store()
        store.put("k", b"value", meta())
        record = store.get("k", purpose="billing")
        assert record.value == b"value"
        assert record.metadata.owner == "alice"

    def test_get_without_purpose(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        assert store.get("k").value == b"v"

    def test_get_missing_key(self):
        store, _ = make_store()
        with pytest.raises(KeyError):
            store.get("missing")

    def test_purpose_not_declared_rejected(self):
        store, _ = make_store()
        store.put("k", b"v", meta(purposes=("billing",)))
        with pytest.raises(PurposeViolationError):
            store.get("k", purpose="marketing")

    def test_put_requires_declared_purpose(self):
        store, _ = make_store()
        with pytest.raises(PurposeViolationError):
            store.put("k", b"v", meta(purposes=()))

    def test_put_without_purpose_allowed_when_configured(self):
        store, _ = make_store(require_purpose=False)
        store.put("k", b"v", meta(purposes=()))
        assert store.get("k").value == b"v"

    def test_created_at_stamped(self):
        store, clock = make_store()
        clock.advance(42.0)
        store.put("k", b"v", meta())
        assert store.get("k").metadata.created_at == pytest.approx(42.0)

    def test_default_ttl_applied(self):
        store, _ = make_store(default_ttl=600.0)
        store.put("k", b"v", meta())
        assert store.get("k").metadata.ttl == 600.0

    def test_values_encrypted_at_rest(self):
        store, _ = make_store()
        store.put("k", b"SECRET-MARKER", meta())
        raw = store.kv.execute("GET", "k")
        assert b"SECRET-MARKER" not in raw

    def test_plaintext_mode(self):
        store, _ = make_store(encrypt_at_rest=False)
        store.put("k", b"SECRET-MARKER", meta())
        raw = store.kv.execute("GET", "k")
        assert b"SECRET-MARKER" in raw


class TestAccessControl:
    def test_unknown_principal_denied_read(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        with pytest.raises(AccessDeniedError):
            store.get("k", principal=Principal("stranger"))

    def test_denied_access_audited(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        with pytest.raises(AccessDeniedError):
            store.get("k", principal=Principal("stranger"))
        denied = [r for r in store.audit.records()
                  if r.outcome == "denied"]
        assert len(denied) == 1
        assert denied[0].principal == "stranger"

    def test_granted_principal_allowed(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        store.access.grant("worker", Operation.READ, purpose="billing")
        record = store.get("k", principal=Principal("worker"),
                           purpose="billing")
        assert record.value == b"v"

    def test_subject_reads_own_data(self):
        store, _ = make_store()
        store.put("k", b"v", meta(owner="alice"))
        record = store.get("k", principal=Principal.subject("alice"))
        assert record.value == b"v"

    def test_subject_cannot_read_others(self):
        store, _ = make_store()
        store.put("k", b"v", meta(owner="alice"))
        with pytest.raises(AccessDeniedError):
            store.get("k", principal=Principal.subject("bob"))

    def test_write_denied_for_unknown(self):
        store, _ = make_store()
        with pytest.raises(AccessDeniedError):
            store.put("k", b"v", meta(), principal=Principal("stranger"))


class TestDelete:
    def test_delete_removes(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        assert store.delete("k") is True
        with pytest.raises(KeyError):
            store.get("k")

    def test_delete_missing(self):
        store, _ = make_store()
        assert store.delete("missing") is False

    def test_delete_updates_index(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        store.delete("k")
        assert store.keys_of_subject("alice") == []

    def test_delete_records_erasure_event(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        store.delete("k")
        assert len(store.erasure_events) == 1
        event = store.erasure_events[0]
        assert event.subject == "alice"
        assert event.reason == "del"


class TestTTLIntegration:
    def test_ttl_becomes_store_expiry(self):
        store, _ = make_store()
        store.put("k", b"v", meta(ttl=100.0))
        assert 99 <= store.kv.execute("TTL", "k") <= 100

    def test_expired_record_erased_by_cron(self):
        store, clock = make_store()
        store.put("k", b"v", meta(ttl=10.0))
        clock.advance(11)
        store.tick()
        with pytest.raises(KeyError):
            store.get("k")
        assert len(store.erasure_events) == 1
        assert store.erasure_events[0].reason == "active-expire"

    def test_erasure_lateness_tracked(self):
        store, clock = make_store()
        store.put("k", b"v", meta(ttl=10.0))
        clock.advance(25)
        store.tick()
        event = store.erasure_events[0]
        assert event.lateness == pytest.approx(15.0, abs=1.0)

    def test_erasure_report(self):
        store, clock = make_store()
        store.put("a", b"v", meta(ttl=10.0))
        store.put("b", b"v", meta(owner="bob", ttl=10.0))
        clock.advance(12)
        store.tick()
        report = store.erasure_report()
        assert report["events"] == 2.0
        assert report["with_deadline"] == 2.0
        assert report["max_lateness"] >= 0.0

    def test_system_erasure_audited(self):
        store, clock = make_store()
        store.put("k", b"v", meta(ttl=5.0))
        clock.advance(6)
        store.tick()
        ops = [r.operation for r in store.audit.records()]
        assert "expire-erase" in ops


class TestGroupAccess:
    def test_process_for_purpose(self):
        store, _ = make_store()
        store.put("k1", b"1", meta(purposes=("ads", "billing")))
        store.put("k2", b"2", meta(owner="bob", purposes=("billing",)))
        records = store.process_for_purpose("billing")
        assert sorted(r.key for r in records) == ["k1", "k2"]
        assert [r.key for r in store.process_for_purpose("ads")] == ["k1"]

    def test_keys_of_subject(self):
        store, _ = make_store()
        store.put("k1", b"1", meta())
        store.put("k2", b"2", meta(owner="bob"))
        assert store.keys_of_subject("alice") == ["k1"]

    def test_subject_parts(self):
        store, _ = make_store()
        store.put("k1", b"1", meta())

        def keys_part(target, subject, principal, arg):
            keys = target.keys_of_subject(subject)
            return {"keys": keys, "arg": arg} if keys else None

        controller = Principal.controller()
        assert store.subject_parts(keys_part, "alice", controller, 7) \
            == [(0, {"keys": ["k1"], "arg": 7})]
        assert store.subject_parts(keys_part, "ghost", controller) == []
        with pytest.raises(UnknownSubjectError):
            right_of_access(store, "ghost")


class TestLocationEnforcement:
    def test_put_blocked_in_disallowed_region(self):
        store, _ = make_store(region="us-east")
        with pytest.raises(LocationViolationError):
            store.put("k", b"v", meta())

    def test_put_allowed_when_whitelisted(self):
        store, _ = make_store(region="us-east")
        store.put("k", b"v", meta(allowed_regions=frozenset({"us-east"})))
        assert store.locations.locations_of("k") == ["us-east"]

    def test_location_tracked_and_cleared(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        assert store.locations.locations_of("k") == ["eu-west"]
        store.delete("k")
        assert store.locations.locations_of("k") == []


class TestUpdateMetadata:
    def test_update_reindexes(self):
        store, _ = make_store()
        store.put("k", b"v", meta(purposes=("ads",)))
        new_meta = store.get("k").metadata.with_objection("ads")
        store.update_metadata("k", new_meta)
        assert store.index.keys_for_purpose("ads") == []
        with pytest.raises(PurposeViolationError):
            store.get("k", purpose="ads")

    def test_update_preserves_value(self):
        store, _ = make_store()
        store.put("k", b"original", meta())
        store.update_metadata("k", meta(purposes=("billing", "new")))
        assert store.get("k").value == b"original"


class TestRebuildIndexes:
    def test_rebuild_from_keyspace(self):
        store, _ = make_store()
        store.put("k1", b"1", meta())
        store.put("k2", b"2", meta(owner="bob"))
        store.index.clear()
        assert store.keys_of_subject("alice") == []
        count = store.rebuild_indexes()
        assert count == 2
        assert store.keys_of_subject("alice") == ["k1"]
        assert store.keys_of_subject("bob") == ["k2"]

    def test_rebuild_plaintext_mode(self):
        store, _ = make_store(encrypt_at_rest=False)
        store.put("k1", b"1", meta())
        store.index.clear()
        assert store.rebuild_indexes() == 1

    def test_rebuild_skips_crypto_erased(self):
        store, _ = make_store()
        store.put("k1", b"1", meta())
        store.keystore.erase_key("alice")
        store.index.clear()
        assert store.rebuild_indexes() == 0


class TestAudit:
    def test_every_interaction_audited(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        store.get("k")
        store.delete("k")
        ops = [r.operation for r in store.audit.records()]
        assert ops.count("put") == 1
        assert ops.count("get") == 1
        assert ops.count("delete") == 1

    def test_pseudonymized_audit(self):
        store, _ = make_store(pseudonymize_audit=True)
        store.put("k", b"v", meta())
        record = store.audit.records()[0]
        assert record.subject != "alice"
        assert store.pseudonymizer.reidentify(record.subject) == "alice"
