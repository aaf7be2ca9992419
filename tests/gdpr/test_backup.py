"""Tests for backup generations under the right to be forgotten.

The restore and reconciliation classes run once over the Redis-like
store and again, as their ``...EveryEngine`` subclasses, over every
engine variant of the conformance suite: a backup is a snapshot, and
every engine writes the one snapshot format.
"""

import pytest

from repro.common.clock import SimClock
from repro.crypto.keystore import KeyStore
from repro.gdpr import (
    BackupManager,
    GDPRConfig,
    GDPRMetadata,
    GDPRStore,
    right_to_erasure,
)
from repro.kvstore import KeyValueStore, StoreConfig
from repro.kvstore.snapshot import load
from tests.support import ENGINE_FACTORIES


def make_store():
    clock = SimClock()
    kv = KeyValueStore(StoreConfig(appendonly=True), clock=clock)
    return GDPRStore(kv=kv, config=GDPRConfig()), clock


@pytest.fixture
def store():
    return make_store()[0]


@pytest.fixture(params=sorted(ENGINE_FACTORIES))
def engine_store(request):
    engine = ENGINE_FACTORIES[request.param](SimClock())
    return GDPRStore(kv=engine, config=GDPRConfig(), keystore=KeyStore())


def meta(owner="alice"):
    return GDPRMetadata(owner=owner, purposes=frozenset({"svc"}))


def mentions_key(backup, key):
    return any(record.key == key.encode("utf-8")
               for records in load(backup.snapshot).values()
               for record in records)


class TestLifecycle:
    def test_take_and_find(self):
        store, _ = make_store()
        manager = BackupManager(store)
        backup = manager.take_backup("nightly")
        assert manager.find("nightly") is backup

    def test_find_missing(self):
        store, _ = make_store()
        with pytest.raises(KeyError):
            BackupManager(store).find("ghost")

    def test_generation_bound(self):
        store, _ = make_store()
        manager = BackupManager(store, max_generations=3)
        for i in range(5):
            manager.take_backup(f"b{i}")
        assert [b.label for b in manager.backups] == ["b2", "b3", "b4"]

    def test_auto_labels(self):
        store, _ = make_store()
        manager = BackupManager(store)
        assert manager.take_backup().label == "backup-0000"

    def test_backups_audited(self):
        store, _ = make_store()
        BackupManager(store).take_backup()
        assert any(r.operation == "backup"
                   for r in store.audit.records())

    def test_bad_generation_count(self):
        store, _ = make_store()
        with pytest.raises(ValueError):
            BackupManager(store, max_generations=0)


class TestRestore:
    def test_restore_roundtrip(self, store):
        store.put("k", b"value", meta())
        manager = BackupManager(store)
        manager.take_backup("snap")
        store.delete("k")  # mutate the live store afterwards
        restored = manager.restore("snap")
        assert restored.kv.engine_name == store.kv.engine_name
        assert restored.get("k").value == b"value"
        assert restored.keys_of_subject("alice") == ["k"]

    def test_restore_cannot_resurrect_erased_subject(self, store):
        store.put("k", b"pii", meta())
        manager = BackupManager(store)
        manager.take_backup("pre-erasure")
        right_to_erasure(store, "alice")
        restored = manager.restore("pre-erasure")
        # The ciphertext is back in the keyspace, but alice's data key is
        # tombstoned: the record is unreadable and unindexed.
        assert restored.keys_of_subject("alice") == []
        with pytest.raises(KeyError):
            restored.get("k")

    def test_restore_preserves_other_subjects(self, store):
        store.put("a", b"alice-data", meta("alice"))
        store.put("b", b"bob-data", meta("bob"))
        manager = BackupManager(store)
        manager.take_backup("snap")
        right_to_erasure(store, "alice")
        restored = manager.restore("snap")
        assert restored.get("b").value == b"bob-data"


class TestReconciliation:
    def test_mentions_tracking(self, store):
        store.put("k", b"pii", meta())
        manager = BackupManager(store)
        manager.take_backup("with-alice")
        store.delete("k")
        manager.take_backup("without-alice")
        assert [b.label for b in manager.backups
                if mentions_key(b, "k")] == ["with-alice"]

    def test_reconcile_report_only(self, store):
        store.put("k", b"pii", meta())
        manager = BackupManager(store)
        manager.take_backup("g0")
        receipt = right_to_erasure(store, "alice")
        report = manager.reconcile_erasure("alice", receipt.keys_erased,
                                           rewrite=False)
        assert report.mentioning == ["g0"]
        assert report.rewritten == []
        assert report.residual_generations == 1
        assert report.crypto_voided is True

    def test_reconcile_with_rewrite(self, store):
        store.put("k", b"pii", meta())
        manager = BackupManager(store)
        manager.take_backup("g0")
        receipt = right_to_erasure(store, "alice")
        report = manager.reconcile_erasure("alice", receipt.keys_erased,
                                           rewrite=True)
        assert report.rewritten == ["g0"]
        assert report.residual_generations == 0
        assert [b.label for b in manager.backups
                if mentions_key(b, "k")] == []

    def test_unaffected_generations_untouched(self, store):
        store.put("bob", b"bob-data", meta("bob"))
        manager = BackupManager(store)
        untouched = manager.take_backup("bob-only").snapshot
        store.put("k", b"alice-data", meta("alice"))
        manager.take_backup("both")
        receipt = right_to_erasure(store, "alice")
        report = manager.reconcile_erasure("alice", receipt.keys_erased,
                                           rewrite=True)
        assert report.mentioning == ["both"]
        assert manager.find("bob-only").snapshot is untouched

    def test_scrub_keeps_the_generation_as_taken_minus_the_subject(
            self, store):
        """Regression: a scrub replaced each affected generation with a
        snapshot of the live keyspace, so restoring it returned data
        written after ``taken_at`` and lost data deleted since."""
        for subject in ("alice", "bob", "carol"):
            store.put(subject, f"old-{subject}".encode(), meta(subject))
        manager = BackupManager(store)
        manager.take_backup("nightly-1")
        store.put("bob", b"new-bob", meta("bob"))
        store.delete("carol")
        store.put("dave", b"dave:1", meta("dave"))
        receipt = right_to_erasure(store, "alice")
        report = manager.reconcile_erasure("alice", receipt.keys_erased,
                                           rewrite=True)
        assert report.rewritten == ["nightly-1"]
        backup = manager.find("nightly-1")
        assert "alice" not in backup.wrapped_keys
        assert not mentions_key(backup, "alice")
        restored = manager.restore("nightly-1")
        assert restored.get("bob").value == b"old-bob"
        assert restored.get("carol").value == b"old-carol"
        for gone in ("alice", "dave"):
            with pytest.raises(KeyError):
                restored.get(gone)
        assert sorted(restored.kv.execute("KEYS", "*")) == [b"bob",
                                                            b"carol"]


class TestRestoreEveryEngine(TestRestore):
    """Regression: on a relational or tiered store, restore raised
    CorruptionError (it parsed every backup as a Redis-like snapshot
    and restored into a hard-coded Redis-like store)."""

    @pytest.fixture
    def store(self, engine_store):
        return engine_store


class TestReconciliationEveryEngine(TestReconciliation):
    """Regression: finding a key in a backup raised CorruptionError on a
    relational or tiered store."""

    @pytest.fixture
    def store(self, engine_store):
        return engine_store
