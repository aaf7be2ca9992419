"""Tests for subject rights (Art. 15, 17, 20, 21)."""

import json

import pytest

from repro.common.clock import SimClock
from repro.common.errors import UnknownSubjectError
from repro.gdpr import (
    GDPRConfig,
    GDPRMetadata,
    GDPRStore,
    right_of_access,
    right_to_erasure,
    right_to_object,
    right_to_portability,
)
from repro.gdpr.rights import transfer_subject
from repro.kvstore import KeyValueStore, StoreConfig, contains_key


def make_store(**gdpr_kwargs):
    clock = SimClock()
    kv = KeyValueStore(
        StoreConfig(appendonly=True, aof_log_reads=True,
                    expiry_strategy="fullscan"),
        clock=clock)
    return GDPRStore(kv=kv, config=GDPRConfig(**gdpr_kwargs))


def meta(owner="alice", purposes=("billing",), **kwargs):
    return GDPRMetadata(owner=owner, purposes=frozenset(purposes),
                        **kwargs)


def seed(store):
    store.put("alice:1", b"invoice", meta(ttl=3600.0,
                                          shared_with=frozenset({"p1"})))
    store.put("alice:2", b"profile",
              meta(purposes=("billing", "ads"), decision_making=True))
    store.put("bob:1", b"bobdata", meta(owner="bob"))


class TestRightOfAccess:
    def test_report_covers_all_records(self):
        store = make_store()
        seed(store)
        report = right_of_access(store, "alice")
        assert len(report.records) == 2
        assert {r["key"] for r in report.records} == {"alice:1", "alice:2"}

    def test_report_fields(self):
        store = make_store()
        seed(store)
        report = right_of_access(store, "alice")
        by_key = {r["key"]: r for r in report.records}
        assert by_key["alice:1"]["retention_seconds"] == 3600.0
        assert by_key["alice:1"]["recipients"] == ["p1"]
        assert report.automated_decision_keys == ["alice:2"]
        assert "billing" in report.purposes

    def test_unknown_subject(self):
        store = make_store()
        with pytest.raises(UnknownSubjectError):
            right_of_access(store, "ghost")

    def test_report_audited(self):
        store = make_store()
        seed(store)
        right_of_access(store, "alice")
        ops = [r.operation for r in store.audit.records()]
        assert "access-report" in ops


class TestRightToErasure:
    def test_all_keys_erased(self):
        store = make_store()
        seed(store)
        receipt = right_to_erasure(store, "alice")
        assert sorted(receipt.keys_erased) == ["alice:1", "alice:2"]
        assert store.keys_of_subject("alice") == []
        with pytest.raises(KeyError):
            store.get("alice:1")

    def test_other_subjects_untouched(self):
        store = make_store()
        seed(store)
        right_to_erasure(store, "alice")
        assert store.get("bob:1").value == b"bobdata"

    def test_crypto_erasure_performed(self):
        store = make_store()
        seed(store)
        receipt = right_to_erasure(store, "alice")
        assert receipt.crypto_erased is True
        assert "alice" not in store.keystore

    def test_aof_compacted_no_residual(self):
        store = make_store(compact_on_erasure=True)
        seed(store)
        receipt = right_to_erasure(store, "alice")
        assert receipt.log_compacted is True
        assert receipt.residual_in_aof is False
        aof = store.kv.aof_log.read_all()
        assert not contains_key(aof, b"alice:1")

    def test_without_compaction_residual_remains(self):
        store = make_store(compact_on_erasure=False)
        seed(store)
        receipt = right_to_erasure(store, "alice")
        assert receipt.log_compacted is False
        # Deleted data persists in the AOF -- the section 4.3 finding --
        # though crypto-erasure has made the ciphertext unreadable.
        assert receipt.residual_in_aof is True

    def test_unknown_subject(self):
        store = make_store()
        with pytest.raises(UnknownSubjectError):
            right_to_erasure(store, "ghost")

    def test_erasure_is_terminal_for_subject_key(self):
        store = make_store()
        seed(store)
        right_to_erasure(store, "alice")
        # Even restoring old snapshots cannot recover: key is tombstoned.
        from repro.common.errors import KeyErasedError
        with pytest.raises(KeyErasedError):
            store.keystore.get_key("alice")

    def test_duration_measured(self):
        store = make_store()
        seed(store)
        receipt = right_to_erasure(store, "alice")
        assert receipt.duration >= 0.0


class TestRightToPortability:
    def test_json_export(self):
        store = make_store()
        seed(store)
        blob = right_to_portability(store, "alice", fmt="json")
        parsed = json.loads(blob)
        assert parsed["subject"] == "alice"
        assert len(parsed["records"]) == 2
        values = {r["key"]: r["value"] for r in parsed["records"]}
        assert values["alice:1"] == "invoice"

    def test_csv_export(self):
        store = make_store()
        seed(store)
        text = right_to_portability(store, "alice", fmt="csv").decode()
        lines = text.strip().splitlines()
        assert lines[0].startswith("key,")
        assert len(lines) == 3  # header + 2 records

    def test_unsupported_format(self):
        store = make_store()
        seed(store)
        with pytest.raises(ValueError):
            right_to_portability(store, "alice", fmt="xml")

    def test_unknown_subject(self):
        store = make_store()
        with pytest.raises(UnknownSubjectError):
            right_to_portability(store, "ghost")

    def test_export_audited(self):
        store = make_store()
        seed(store)
        right_to_portability(store, "alice")
        assert any(r.operation == "export"
                   for r in store.audit.records())


class TestRightToObject:
    def test_objection_applied_to_all_records(self):
        store = make_store()
        seed(store)
        updated = right_to_object(store, "alice", "ads")
        assert updated == 2
        assert store.index.keys_for_purpose("ads") == []

    def test_objection_blocks_processing(self):
        store = make_store()
        seed(store)
        right_to_object(store, "alice", "ads")
        assert store.process_for_purpose("ads") == []

    def test_other_purposes_unaffected(self):
        store = make_store()
        seed(store)
        right_to_object(store, "alice", "ads")
        assert len(store.process_for_purpose("billing")) == 3

    def test_unknown_subject(self):
        store = make_store()
        with pytest.raises(UnknownSubjectError):
            right_to_object(store, "ghost", "ads")


class TestTransfer:
    def test_transfer_copies_records(self):
        source = make_store()
        target = make_store(node_id="node-1")
        seed(source)
        moved = transfer_subject(source, target, "alice")
        assert moved == 2
        assert target.get("alice:1").value == b"invoice"

    def test_transfer_marks_recipient(self):
        source = make_store()
        target = make_store(node_id="target-controller")
        seed(source)
        transfer_subject(source, target, "alice")
        metadata = source.get("alice:1").metadata
        assert "target-controller" in metadata.shared_with

    def test_target_enforces_own_region(self):
        from repro.common.errors import LocationViolationError
        source = make_store()
        target = make_store(node_id="us-node", region="us-east")
        seed(source)
        with pytest.raises(LocationViolationError):
            transfer_subject(source, target, "alice")
