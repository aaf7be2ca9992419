"""Cross-shard subject rights over the networked cluster of GDPR shards:
Art. 15/20 return the union over shards, and crypto-erasure voids a
subject's records on every shard."""

import csv
import io
import json

import pytest

from repro.common.clock import SimClock
from repro.common.errors import KeyErasedError, UnknownSubjectError
from repro.cluster import GDPRClient, build_cluster, gdpr_shards
from repro.gdpr import GDPRMetadata
from repro.gdpr.rights import (
    right_of_access,
    right_to_erasure,
    right_to_object,
    right_to_portability,
)


def populated_store(num_shards=4, keys_per_subject=12):
    store = GDPRClient(build_cluster(num_shards, clock=SimClock(),
                                     store_factory=gdpr_shards()))
    keys = {"alice": [], "bob": []}
    for number in range(keys_per_subject * 2):
        owner = "alice" if number % 2 == 0 else "bob"
        key = f"user:{number}"
        store.put(key, f"value-{number}".encode(),
                  GDPRMetadata(owner=owner,
                               purposes=frozenset({"billing"}),
                               decision_making=(number == 0)))
        keys[owner].append(key)
    return store, keys


class TestShardedAccess:
    def test_access_report_is_union_across_shards(self):
        store, keys = populated_store()
        # The fixture must actually span shards for the test to mean
        # anything.
        assert len(set(store.shard_for(k) for k in keys["alice"])) >= 2
        report = right_of_access(store, "alice")
        assert sorted(entry["key"] for entry in report.records) == \
            sorted(keys["alice"])
        assert report.purposes == ["billing"]
        assert report.automated_decision_keys == ["user:0"]

    def test_unknown_subject_rejected(self):
        store, _ = populated_store()
        with pytest.raises(UnknownSubjectError):
            right_of_access(store, "mallory")

    def test_slot_map_must_cover_shards(self):
        from repro.cluster import SlotMap
        from repro.common.errors import ClusterError
        with pytest.raises(ClusterError):
            build_cluster(2, slot_map=SlotMap.even(4),
                          store_factory=gdpr_shards())


class TestShardedPortability:
    def test_json_export_is_union_across_shards(self):
        store, keys = populated_store()
        document = json.loads(right_to_portability(store, "alice", "json"))
        assert document["subject"] == "alice"
        assert sorted(row["key"] for row in document["records"]) == \
            sorted(keys["alice"])
        exported_values = {row["key"]: row["value"]
                           for row in document["records"]}
        assert exported_values["user:0"] == "value-0"

    def test_csv_export_has_every_key_and_no_others(self):
        store, keys = populated_store()
        text = right_to_portability(store, "alice", "csv").decode("utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert sorted(row["key"] for row in rows) == sorted(keys["alice"])
        assert not set(row["key"] for row in rows) & set(keys["bob"])


class TestShardedErasure:
    def test_erasure_voids_subject_on_every_shard(self):
        store, keys = populated_store()
        receipt = right_to_erasure(store, "alice")
        assert sorted(receipt.keys_erased) == sorted(keys["alice"])
        assert set(receipt.shards_touched) == \
            set(store.shard_for(k) for k in keys["alice"])
        assert receipt.crypto_erased
        assert not receipt.residual_in_aof
        for key in keys["alice"]:
            with pytest.raises(KeyError):
                store.get(key)
        assert not store.keys_of_subject("alice")
        # The shared keystore tombstones the subject everywhere: even a
        # shard that never held alice's data refuses a new record for the
        # erased id.
        assert store.keystore.is_erased("alice")
        with pytest.raises(KeyErasedError):
            store.put("user:999", b"new",
                      GDPRMetadata(owner="alice",
                                   purposes=frozenset({"billing"})))

    def test_other_subjects_survive_erasure(self):
        store, keys = populated_store()
        right_to_erasure(store, "alice")
        for key in keys["bob"]:
            assert store.get(key).metadata.owner == "bob"
        assert store.keys_of_subject("bob") == sorted(keys["bob"])

    def test_audit_chains_verify_on_every_shard_after_erasure(self):
        store, _ = populated_store()
        right_to_erasure(store, "alice")
        verified = store.cluster.verify_audit_chains()
        assert set(verified) == set(range(store.num_shards))
        assert all(count > 0 for count in verified.values())


class TestShardedObjection:
    def test_objection_applies_across_shards(self):
        store, keys = populated_store()
        updated = right_to_object(store, "alice", "billing")
        assert updated == len(keys["alice"])
        assert store.process_for_purpose("billing") != []
        assert all(record.metadata.owner == "bob"
                   for record in store.process_for_purpose("billing"))
