"""Tests for backup generations under the right to be forgotten.

The restore and reconciliation classes run once over the Redis-like
store and again, as their ``...EveryEngine`` subclasses, over every
engine variant of the conformance suite: a backup generation is the
log's compacted parts on a device of its own, and every engine writes
the one log format.
"""

import dataclasses

import pytest

from repro.common.clock import SimClock
from repro.common.errors import CorruptionError, DeviceIOError
from repro.crypto.cipher import seeded_entropy
from repro.crypto.keystore import KeyStore
from repro.device.append_log import FsyncPolicy
from repro.device.faults import FaultPlan
from repro.gdpr import (
    BackupManager,
    GDPRConfig,
    GDPRMetadata,
    GDPRStore,
    right_to_erasure,
)
from repro.kvstore import KeyValueStore, StoreConfig
from repro.kvstore.aof import AofWriter, image
from repro.tiering import TieredEngine
from tests.support import ENGINE_FACTORIES, crashpoints


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
    return bool(backup.writer.mentioned_keys([key.encode("utf-8")]))


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

    def test_a_generation_s_device_runs_no_timer(self):
        # A generation commits only at its rewrites' barriers: its
        # device registers no everysec timer beside the live log's.
        store, clock = make_store()
        timers = clock.pending_timers()
        backup = BackupManager(store).take_backup()
        assert backup.writer.log.timer is None
        assert clock.pending_timers() == timers

    def test_auto_labels(self):
        store, _ = make_store()
        manager = BackupManager(store)
        assert manager.take_backup().label == "backup-0000"

    def test_backups_audited(self):
        store, _ = make_store()
        BackupManager(store).take_backup()
        assert any(r.operation == "backup"
                   for r in store.audit.records())

    def test_a_store_without_a_durable_log_backs_up(self):
        store = GDPRStore(kv=KeyValueStore(StoreConfig(), clock=SimClock()),
                          config=GDPRConfig())
        store.put("k", b"value", meta())
        manager = BackupManager(store)
        backup = manager.take_backup("nightly")
        assert backup.writer.part_files() == ["nightly"]
        assert manager.restore("nightly").get("k").value == b"value"

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
        untouched = FaultPlan(manager.take_backup("bob-only").writer.log)
        store.put("k", b"alice-data", meta("alice"))
        manager.take_backup("both")
        receipt = right_to_erasure(store, "alice")
        report = manager.reconcile_erasure("alice", receipt.keys_erased,
                                           rewrite=True)
        assert report.mentioning == ["both"]
        # The generation's device saw no operation at all: no append,
        # rename or remove.
        assert untouched.steps == []

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


def generation(backup):
    """Every file on the generation's device, with its bytes."""
    log = backup.writer.log
    return {name: log.read_all(name) for name in log.files()}


def owned_store(variant):
    """A store of ``variant`` holding alice, bob and carol; on the
    tiered variants bob's record is archived."""
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](SimClock()),
                      config=GDPRConfig(), keystore=KeyStore())
    for subject in ("alice", "bob", "carol"):
        store.put(subject, f"data-{subject}".encode(), meta(subject))
    if isinstance(store.kv, TieredEngine):
        assert store.kv.demote_keys([b"bob"]) == 1
    return store


def overwrite(log, name, data):
    """Give file ``name`` of ``log`` the bytes ``data``."""
    log.open(name + ".damaged")
    log.append(data)
    log.rename(name)


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_damaged_generation_rejected_and_nothing_changes(variant):
    """Every truncation of a part, a flipped byte and a trailing byte
    fail the part's CRC-32: a restore raises before it builds a store,
    a scrub before it writes, and the live keyspace stays as it was."""
    store = owned_store(variant)
    manager = BackupManager(store)
    backup = manager.take_backup("nightly")
    log = backup.writer.log
    [part] = backup.writer.part_files([b"alice"])
    data = log.read_all(part)
    flipped = bytearray(data)
    flipped[-3] ^= 0x01          # inside the last record's last argument
    live = image(store.kv)
    restores = len([r for r in store.audit.records()
                    if r.operation == "restore"])
    for bad in [data[:n] for n in range(len(data))] \
            + [data + b"\x00", bytes(flipped)]:
        overwrite(log, part, bad)
        with pytest.raises(CorruptionError):
            manager.restore("nightly")
    plan = FaultPlan(log)
    for bad in (data + b"\x00", bytes(flipped)):
        overwrite(log, part, bad)
        before, steps = generation(backup), len(plan.steps)
        with pytest.raises(CorruptionError):
            manager.reconcile_erasure("alice", ["alice"], rewrite=True)
        assert len(plan.steps) == steps and generation(backup) == before
    assert image(store.kv) == live
    assert len([r for r in store.audit.records()
                if r.operation == "restore"]) == restores
    overwrite(log, part, data)
    assert manager.restore("nightly").get("carol").value == b"data-carol"


@pytest.mark.parametrize("records", [1000, 4000, 16000])
def test_scrub_writes_only_the_parts_that_held_the_subject(records):
    """A scrub rewrites the part its subject's keys share (placed by the
    live log's homes), not the generation: per affected generation it
    writes no more bytes than the files it replaces -- the parts that
    held the erased keys, and the manifest listing the parts -- at one
    fsync; the new parts alone are smaller than the parts they replace,
    and every other part keeps its bytes."""
    clock = SimClock()
    kv = KeyValueStore(StoreConfig(appendonly=True), clock=clock)
    store = GDPRStore(kv=kv, config=GDPRConfig())
    subjects = records // 8
    for number in range(records):
        key = f"user{number:06d}".encode()
        kv.name_owner(key, f"subject{number % subjects}")
        kv.execute("SET", key, b"v" * 100)
    manager = BackupManager(store)
    backup = manager.take_backup("nightly")
    erased = [f"user{number:06d}" for number in range(0, records, subjects)]
    held = backup.writer.part_files([key.encode() for key in erased])
    before = generation(backup)
    assert len(held) == 1 and len(before) > 2
    fsyncs = backup.writer.log.fsyncs
    kv.execute("DEL", *erased)
    report = manager.reconcile_erasure("subject0", erased, rewrite=True)
    assert report.rewritten == ["nightly"]
    after = generation(backup)
    written = sum(len(data) for name, data in after.items()
                  if before.get(name) != data)
    manifest = "nightly.manifest"
    assert written <= sum(len(before[name]) for name in held + [manifest])
    assert written - len(after[manifest]) < \
        sum(len(before[name]) for name in held)
    assert backup.writer.log.fsyncs - fsyncs == 1
    untouched = set(before) - set(held) - {manifest}
    assert {name: after[name] for name in untouched} == \
        {name: before[name] for name in untouched}
    assert not mentions_key(backup, erased[0])


def erased_generation(variant, make_store=owned_store):
    """``variant``'s store with alice erased, and its manager holding
    one generation taken before the erasure: the same bytes every call."""
    with seeded_entropy(46):
        store = make_store(variant)
        manager = BackupManager(store)
        manager.take_backup("nightly")
        return store, manager, right_to_erasure(store, "alice").keys_erased


def reopened_generation(stack):
    """A scrub's stack with its generation's writer opened anew over the
    relit device, as a restarted process opens it: the writer sweeps a
    cut rewrite's leftover files."""
    backup = stack[1].find("nightly")
    log = backup.writer.log
    log.reopen(log.clock)
    backup.writer = AofWriter(log, log.clock, FsyncPolicy.NO)
    return stack


def crowded_store(variant):
    """A store of ``variant`` whose keyspace outgrows one part: 40
    subjects with six records each, alice among them; on the tiered
    variants some records of each kind are archived."""
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](SimClock()),
                      config=GDPRConfig(), keystore=KeyStore())
    for number in range(240):
        subject = "alice" if number % 40 == 0 else f"user{number % 40}"
        store.put(f"rec{number:03d}", b"x" * 120, meta(subject))
    if isinstance(store.kv, TieredEngine):
        assert store.kv.demote_keys([b"rec000", b"rec001", b"rec002"]) == 3
    return store


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_generation_of_several_parts_restores_as_taken(variant):
    store = crowded_store(variant)
    manager = BackupManager(store)
    backup = manager.take_backup("nightly")
    assert len(backup.writer.part_files()) > 1
    taken = {key.decode(): store.get(key.decode()).value
             for key in store.kv.live_keys()}
    store.delete("rec001")
    store.put("late", b"after", meta("bob"))
    restored = manager.restore("nightly")
    assert sorted(restored.kv.live_keys()) == sorted(
        key.encode() for key in taken)
    assert {key: restored.get(key).value for key in taken} == taken
    assert sorted(restored.keys_of_subject("alice")) == \
        [f"rec{number:03d}" for number in range(0, 240, 40)]


def erased_crowd(variant):
    """:func:`erased_generation` over :func:`crowded_store`."""
    return erased_generation(variant, crowded_store)


#: the generation of each erased store -> a key it keeps, and its value.
BYSTANDERS = {erased_generation: ("carol", b"data-carol"),
              erased_crowd: ("rec041", b"x" * 120)}


@pytest.mark.parametrize("erased_store", [erased_generation, erased_crowd],
                         ids=["one-part", "several-parts"])
@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_power_loss_anywhere_in_a_scrub(variant, erased_store):
    """A power cut before any step of the scrub of alice from a
    generation, or right after it returns, and the generation opened
    anew over its device (:func:`reopened_generation`): it is as it was
    or as the scrub leaves it, byte for byte; the parts it lists verify;
    a restore from it serves no erased key and every other; and the next
    scrub finishes the erasure a cut interrupted.  Each cut's PowerLoss
    names the step it cut (nothing after the cut touches the dark
    device).  Over a generation split into parts, the scrub writes
    alice's part anew and renames it over the old one: the manifest
    untouched, nothing to remove."""
    taken = erased_store(variant)[1].find("nightly")
    *cuts, done = crashpoints(
        lambda: erased_store(variant),
        lambda stack: stack[1].reconcile_erasure("alice", stack[2],
                                                 rewrite=True),
        lambda stack: [stack[1].find("nightly").writer.log],
        reopened_generation)
    old, steps = generation(taken), done.steps
    new = generation(done.stack[1].find("nightly"))
    assert new != old and {"append", "fsync", "rename"} <= set(steps)
    if erased_store is erased_crowd:
        assert steps[-1] == "rename" and "remove" not in steps
        assert done.stack[1].find("nightly").writer.part_files() == \
            taken.writer.part_files()
    for point in cuts:
        step = steps[len(point.steps)]
        assert point.lost == f"power lost before nightly.{step}"
    key, value = BYSTANDERS[erased_store]
    for point in cuts + [done]:
        _, manager, erased = point.recovered
        backup = manager.find("nightly")
        assert generation(backup) in (old, new)
        backup.verified(backup.writer.part_files())
        restored = manager.restore("nightly")
        assert restored.keys_of_subject("alice") == []
        for gone in erased:
            with pytest.raises(KeyError):
                restored.get(gone)
        assert restored.get(key).value == value
        manager.reconcile_erasure("alice", erased, rewrite=True)
        assert generation(backup) == new


@pytest.mark.parametrize("erased_store", [erased_generation, erased_crowd])
@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_failed_scrub_step_leaves_a_generation_that_restores(
        variant, erased_store):
    """A scrub whose device operation fails -- each step a scrub takes,
    in turn -- raises DeviceIOError and leaves parts that verify; a
    restore from them serves no alice, and the next scrub completes."""
    _, manager, erased = erased_store(variant)
    plan = FaultPlan(manager.find("nightly").writer.log)
    manager.reconcile_erasure("alice", erased, rewrite=True)
    scrubbed = generation(manager.find("nightly"))
    for step in plan.steps:
        _, manager, erased = erased_store(variant)
        backup = manager.find("nightly")
        FaultPlan(backup.writer.log).fail(step)
        with pytest.raises(DeviceIOError):
            manager.reconcile_erasure("alice", erased, rewrite=True)
        backup.verified(backup.writer.part_files())
        restored = manager.restore("nightly")
        assert restored.keys_of_subject("alice") == []
        for key in erased:
            with pytest.raises(KeyError):
                restored.get(key)
        manager.reconcile_erasure("alice", erased, rewrite=True)
        assert generation(backup) == scrubbed, step


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_restored_store_restarts_over_its_copy(variant):
    """A restore is a restart over a copy of the generation's device:
    the generation's device takes no step, and the restored store takes
    the live one's place in the manager, continues the live audit chain
    (the restore its last record) under the live grants, and logs to
    the copy, so its own reopen() serves what it restored and what it
    wrote since.  The live store stops, leaving no timer behind, so
    that reopen() takes over an audit device nobody else writes (a put
    after it is sealed at once); the locations follow the keyspace."""
    store = owned_store(variant)
    manager = BackupManager(store)
    plan = FaultPlan(manager.take_backup("nightly").writer.log)
    timers = store.clock.pending_timers()
    store.put("gone", b"after", meta("erin"))
    restored = manager.restore("nightly")
    assert plan.steps == [] and store.clock.pending_timers() == timers
    assert manager.store is restored
    assert restored.audit is store.audit and restored.access is store.access
    assert store.audit.verify() > 0
    assert store.audit.records()[-1].operation == "restore"
    restored.put("late", b"after", meta("dave"))
    reopened = restored.reopen()
    reopened.put("later", b"again", meta("dave"))
    assert reopened.audit.pending_records == 0
    assert reopened.audit.verify() == len(reopened.audit.records())
    assert reopened.get("late").value == b"after"
    for subject in ("alice", "bob", "carol"):
        assert reopened.get(subject).value == f"data-{subject}".encode()
    assert reopened.keys_of_subject("dave") == ["late", "later"]
    assert reopened.locations.locations_of("gone") == []
    for key in ("alice", "bob", "carol", "late", "later"):
        assert reopened.locations.locations_of(key) == ["eu-west"]
    assert plan.steps == []


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_backup_call_after_a_restart_extends_the_live_audit_chain(variant):
    """Regression: the manager kept the store it was given, so a scrub
    after ``reopen`` appended its ``backup-reconcile`` record through
    the superseded store's AuditLog onto the shared audit device, and
    the live chain failed to verify.  The manager follows every restart
    of its store, a reopen as a restore."""
    store = owned_store(variant)
    manager = BackupManager(store)
    manager.take_backup("nightly")
    live = store.reopen()
    erased = right_to_erasure(live, "alice").keys_erased
    assert manager.reconcile_erasure(
        "alice", erased, rewrite=True).rewritten == ["nightly"]
    assert manager.store is live
    assert live.audit.verify() == len(live.audit.records())
    assert live.audit.records()[-1].operation == "backup-reconcile"
    restored = manager.restore("nightly")
    assert restored.keys_of_subject("alice") == []
    assert restored.audit.verify() == len(restored.audit.records())


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_restore_brings_back_no_record_of_an_erased_subject(variant):
    """Regression: a restore of a generation taken before Art. 17 put
    the erased subject's key back into a Redis-like keyspace, unreadable
    and unindexed, where a second Art. 17 could not find it.  The
    rebuild deletes every record whose sid is tombstoned, on every
    engine."""
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](SimClock()))
    store.put("alice:k", b"a", meta("alice"))
    store.put("bob:k", b"b", meta("bob"))
    manager = BackupManager(store)
    manager.take_backup("nightly")
    right_to_erasure(store, "alice")
    restored = manager.restore("nightly")
    assert restored.kv.live_keys() == [b"bob:k"]
    assert restored.get("bob:k").value == b"b"


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_generation_holds_no_key_material(variant):
    """A generation keeps its parts, their manifest and CRC-32s, and no
    copy of a wrapped key: the live keystore is the one key authority,
    so an erased subject's key cannot come back from a backup."""
    store = crowded_store(variant)
    backup = BackupManager(store).take_backup("nightly")
    assert [field.name for field in dataclasses.fields(backup)] == [
        "label", "taken_at", "writer", "crcs"]
    assert backup.writer.log.files() == sorted(
        backup.writer.part_files() + ["nightly.manifest"])
    blobs = store.keystore._wrapped.values()
    assert blobs and not any(blob in data for blob in blobs
                             for data in generation(backup).values())


def test_a_generation_keeps_every_database():
    clock = SimClock()
    kv = KeyValueStore(StoreConfig(appendonly=True), clock=clock)
    store = GDPRStore(kv=kv, config=GDPRConfig())
    session = kv.session(3)
    for number in range(400):
        kv.execute("SET", f"k{number}", b"v" * 100, session=session)
    store.put("k", b"value", meta())
    manager = BackupManager(store)
    assert len(manager.take_backup("nightly").writer.part_files()) > 1
    restored = manager.restore("nightly").kv
    assert restored.execute("GET", "k399", session=restored.session(3)) \
        == b"v" * 100
    assert restored.key_count(3) == 400 and restored.key_count(0) == 1
