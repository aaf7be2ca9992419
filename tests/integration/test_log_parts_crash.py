"""Power loss at every step of a log rewrite, on every engine.

Every rewrite commits the same way: it writes its new files, makes them
durable with one barrier, renames one file -- the commit point -- and
removes the files it replaced.  A rewrite that names keys writes each
new part and a new manifest, and renames the manifest over the old one;
a rewrite that replaces one part by one part from the same slot (a
whole rewrite of an unsplit log, an erasure whose keys share a part)
writes it to a temporary file and renames it over the old part's name,
leaving the manifest as it was.  Power is cut before each of
those device operations in turn, on all four engine variants, for the
whole rewrite of an unsplit log, for the rewrite that first splits an
unsplit log and for an erasure's rewrite of the parts owning a
subject's keys (``FaultPlan.cut`` over every device of the stack).
Whatever the step:

* the durable log replays to the keyspace before the rewrite's barrier
  or the one after it: the records were made durable first, and so was
  the erasure's ``DEL`` -- then both are the keyspace without the
  erased keys, which never come back -- except where a ``DEL`` is
  still buffered: it is lost before the barrier and durable from it on;
* a writer reopened on the crashed device reads the same log through
  its manifest (an unsplit log has none) and removes every file the log
  does not name;
* once the rename has happened, no file left on the device mentions an
  erased key, and a completed erasure reports no residual.

The same cuts run over parts placed by owner (the GDPR layer names a
record's owner before its first write, so a subject's keys share one
part): the restarted store recovers the keyspace, and its next erasure
rewrites one part with no residual and no whole-log fallback.
"""

import pytest

from repro.common.clock import SimClock
from repro.device.faults import FaultPlan
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import right_to_erasure
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.aof import mentioned_keys, replay_commands
from repro.tiering import TieredEngine
from tests.support import (
    ENGINE_FACTORIES, crashpoints, parts_of, restarts_agree)

RECORDS = 250
VALUE = b"v" * 200
ERASED = [b"user3", b"user40", b"user170", b"user233"]


def _logged(engine):
    logged = engine.inner if isinstance(engine, TieredEngine) else engine
    return sorted((index, record[:3])
                  for index, records in logged.snapshot_records().items()
                  for record in records)


def _cold_devices(engine):
    return [engine.cold.device] if isinstance(engine, TieredEngine) else []


def _loaded(variant):
    engine = ENGINE_FACTORIES[variant](SimClock())
    for i in range(RECORDS):
        engine.execute("SET", f"user{i}", VALUE)
    engine.aof.log.flush_and_fsync()
    return engine


# Each scenario builds a stack: the engine, the keys its rewrite names,
# the keys it erases, and the keyspace its log replays to before the
# rewrite's barrier and after it.
def _whole(variant):
    engine = _loaded(variant)
    before = _logged(engine)
    engine.execute("DEL", *ERASED)
    return engine, None, ERASED, before, _logged(engine)


def _split(variant):
    engine = _loaded(variant)
    return engine, [b"user0"], [], _logged(engine), _logged(engine)


def _erase(variant, durable=True, erased=ERASED):
    engine = _loaded(variant)
    engine.rewrite_aof([b"user0"])
    before = _logged(engine)
    engine.execute("DEL", *erased)
    if durable:
        engine.aof.log.flush_and_fsync()
        before = _logged(engine)
    return engine, erased, erased, before, _logged(engine)


def _erase_buffered(variant):
    return _erase(variant, durable=False)


def _erase_one_part(variant):
    return _erase(variant, erased=ERASED[:1])


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
@pytest.mark.parametrize("scenario",
                         [_whole, _split, _erase, _erase_buffered,
                          _erase_one_part],
                         ids=["whole-rewrite", "split", "erasure",
                              "erasure-buffered-del", "erasure-one-part"])
def test_power_loss_at_every_step_recovers_the_old_or_new_keyspace(
        variant, scenario):
    for point in crashpoints(
            lambda: scenario(variant),
            lambda stack: stack[0].rewrite_aof(stack[1]),
            lambda stack: [stack[0].aof.log, *_cold_devices(stack[0])],
            lambda stack: stack[0].reopen()):
        engine, keys, erased, before, after = point.stack
        log, recovered = engine.aof.log, point.recovered.aof
        # The durable log ends on a whole record.
        replay_commands(recovered.read_durable(),
                        tolerate_truncated_tail=False)
        _old_or_new(point.recovered, log, erased, before, after,
                    point.steps)
        assert recovered.read_durable() == engine.aof.read_durable()
        assert len(log.files()) == len(recovered.part_files()) \
            + recovered.split
        if scenario is _whole:
            assert log.files() == [log.name], (variant, point.lost)
        restarts_agree(point, _logged)
    steps = point.steps                  # the run that returned
    assert set(steps) >= {"append", "flush", "fsync", "rename"}
    assert steps.count("fsync") == 1
    if scenario in (_whole, _erase_one_part):
        # One part renamed over the old part's name (an unsplit log's:
        # the device's own file): nothing to remove.
        assert "remove" not in steps
    else:
        # The commit's last step removes the retired parts.
        assert steps[-1] == "remove" and steps.count("remove") == 1


def _residual(log, erased):
    """Whether some file on ``log`` still mentions an erased key."""
    return any(mentioned_keys(log.read_all(name), erased)
               for name in log.files())


def _old_or_new(recovered, log, erased, before, after, steps):
    """The crashed rewrite of a restarted log (``log``, its leftovers
    swept): the barrier makes the new parts -- and a buffered ``DEL``
    -- durable, and once the rename has happened no file on the device
    mentions an erased key."""
    assert _logged(recovered) == (after if "fsync" in steps else before), \
        steps
    assert _residual(log, erased) == bool(erased and "rename" not in steps), \
        steps


class _Appends(FaultPlan):
    """A fault plan that also notes the file each append wrote to."""

    def __init__(self, *devices):
        super().__init__(*devices)
        self.files = []

    def step(self, device, op):
        super().step(device, op)
        if op == "append":
            self.files.append(device.file)


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_one_part_erasure_writes_no_manifest_bytes(variant):
    """An erasure whose keys share one part replaces that part by one
    starting at the same slot: it writes the new part to a temporary
    file and renames it over the old part's name, and the manifest --
    which lists the same files -- is neither written nor renamed."""
    engine, keys, *_ = _erase_one_part(variant)
    log, aof = engine.aof.log, engine.aof
    manifest = log.read_all(aof._manifest_file)
    files = aof.part_files()
    (part,) = aof.part_files(keys)
    plan = _Appends(log, *_cold_devices(engine))
    engine.rewrite_aof(keys)
    assert set(plan.files) == {part + ".tmp"}
    assert plan.steps[-3:] == ["flush", "fsync", "rename"]
    assert aof.part_files() == files and part in log.files()
    assert log.read_all(aof._manifest_file) == manifest
    assert not mentioned_keys(log.read_all(part), keys)


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_completed_erasure_leaves_no_trace_on_the_device(variant):
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](SimClock()),
                      config=GDPRConfig(compact_on_erasure=True))
    _put_owned(store, RECORDS)
    right_to_erasure(store, "subject-0")              # splits the log
    log = store.kv.aof.log
    assert store.kv.aof.split
    fsyncs = log.fsyncs
    receipt = right_to_erasure(store, "subject-7")
    assert receipt.log_compacted and not receipt.residual_in_aof
    assert log.fsyncs == fsyncs + 1
    names = [key.encode() for key in receipt.keys_erased]
    assert len(names) == 4
    assert not _residual(log, names)


OWNED_RECORDS = 600
KEYS_PER_SUBJECT = 4


def _gdpr(engine):
    return GDPRStore(kv=engine, config=GDPRConfig(encrypt_at_rest=False,
                                                  compact_on_erasure=True))


def _put_owned(store, records):
    """Put ``user<i>`` for each of ``records`` ``i``, ``KEYS_PER_SUBJECT``
    keys per subject; returns each key's owner."""
    owners = {}
    for i in range(records):
        owners[f"user{i}".encode()] = owner = \
            f"subject-{i // KEYS_PER_SUBJECT}"
        store.put(f"user{i}", VALUE,
                  GDPRMetadata(owner=owner, purposes=frozenset({"service"})),
                  purpose="service")
    return owners


def _owned_and_restarted(variant):
    """A GDPR store of 400 owner-placed keys, its unsplit log durable,
    restarted; and each key's owner."""
    store = _gdpr(ENGINE_FACTORIES[variant](SimClock()))
    owners = _put_owned(store, 100 * KEYS_PER_SUBJECT)
    store.kv.aof.log.flush_and_fsync()
    return store.reopen(), owners


def _owned(variant):
    """A GDPR store whose log is split into owner-placed parts."""
    store = _gdpr(ENGINE_FACTORIES[variant](SimClock()))
    _put_owned(store, OWNED_RECORDS)
    right_to_erasure(store, "subject-0")              # splits the log
    assert len(store.kv.aof.part_files()) > 2
    return store


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
@pytest.mark.parametrize("durable", [True, False],
                         ids=["durable-del", "buffered-del"])
def test_power_loss_in_an_owner_placed_rewrite_keeps_one_part_erasures(
        variant, durable):
    def build():
        store = _owned(variant)
        engine, log = store.kv, store.kv.aof.log
        erased = [key.encode() for key in store.keys_of_subject("subject-7")]
        before = _logged(engine)
        engine.execute("DEL", *erased)
        if durable:
            log.flush_and_fsync()
            before = _logged(engine)
        return store, erased, before, _logged(engine)

    for point in crashpoints(
            build, lambda stack: stack[0].kv.rewrite_aof(stack[1]),
            lambda stack: [stack[0].kv.aof.log,
                           *_cold_devices(stack[0].kv)],
            lambda stack: stack[0].reopen()):
        store, erased, before, after = point.stack
        if point.lost is None:
            assert point.steps.count("rename") == 1
        restarted = point.recovered
        recovered = restarted.kv
        _old_or_new(recovered, store.kv.aof.log, erased, before, after,
                    point.steps)
        # The restarted store's next erasure: one part, no fallback.
        hot = recovered.inner if isinstance(recovered, TieredEngine) \
            else recovered
        parts = parts_of(recovered.aof)
        rewrites = hot.rewrites_completed
        receipt = right_to_erasure(restarted, "subject-11")
        assert len(receipt.keys_erased) == KEYS_PER_SUBJECT
        assert receipt.log_compacted and not receipt.residual_in_aof
        assert hot.rewrites_completed == rewrites + 1, point.lost
        assert len(parts - parts_of(recovered.aof)) == 1, point.lost


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_store_restarted_before_its_first_split_files_keys_by_owner(
        variant):
    """Regression: a restart forgot every key's owner, so the first split
    placed each key by its own slot and an erasure retired four parts."""
    restarted, _ = _owned_and_restarted(variant)
    recovered = restarted.kv
    assert not recovered.aof.split
    right_to_erasure(restarted, "subject-0")          # splits the log
    assert recovered.aof.split
    parts = parts_of(recovered.aof)
    receipt = right_to_erasure(restarted, "subject-7")
    assert len(receipt.keys_erased) == KEYS_PER_SUBJECT
    assert receipt.log_compacted and not receipt.residual_in_aof
    assert len(parts - parts_of(recovered.aof)) == 1


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_restart_annotates_every_recovered_key_in_one_record(variant):
    """Regression: rebuilding the indexes of a restarted store annotated
    one key per call, so the relational engine logged one ``GDPRMETA``
    record per recovered key (400 records, 24,210 bytes for 400 keys)
    that its WAL already held.  One call now annotates them all, and the
    tiering wrapper still learns every key's owner."""
    restarted, owners = _owned_and_restarted(variant)
    assert len(restarted.index.keys()) == len(owners)
    assert restarted.kv.aof.records_written <= 1
    if isinstance(restarted.kv, TieredEngine):
        assert {key: annotation[0] for key, annotation
                in restarted.kv._owners.items()} == owners
