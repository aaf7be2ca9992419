"""The cold tier under power loss: one barrier per tiered command.

Every durable cold tombstone a single :meth:`TieredEngine.execute` or
:meth:`TieredEngine.tick` lays -- DEL victims, hot deletions that kill a
cold shadow, reclaims, active expiries -- is appended unsynced and
covered by one ``flush_and_fsync`` before the call returns, and a
demotion's seal ends with an fsync *before* the hot copies are removed.
So whatever instant power is lost, followed by recovery (log replay plus
cold recovery):

* every record survives in at least one tier (a torn seal leaves the
  hot copy; a completed seal is durable);
* once the command has returned, nothing deleted, expired or erased
  comes back (durable tombstones, subject markers, crypto-erasure).
"""

import pytest

from repro.common.clock import SimClock
from repro.crypto.cipher import seeded_entropy
from repro.crypto.keystore import KeyStore
from repro.device.append_log import AppendLog, BarrierScope
from repro.device.faults import FaultPlan
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import right_to_erasure
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.aof import replay_commands
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.tiering import TieredEngine, TieringConfig
from repro.tiering.segment import ColdInput, ColdSegmentStore
from tests.support import (
    ENGINE_FACTORIES, crashpoints, pre_or_post, restarts_agree)


def make_engine(*keys):
    """An ``always`` tiered engine holding ``v-<key>`` under each key."""
    clock = SimClock()
    inner = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync="always"),
        clock=clock, aof_log=AppendLog(clock=clock))
    engine = TieredEngine(inner, tiering=TieringConfig(
        auto_demote=False, segment_max_records=8))
    for key in keys:
        engine.execute("SET", key, f"v-{key}")
    return engine


def _shadow_and_cold():
    engine = make_engine("hot", "cold1", "cold2", "kept")
    engine.demote_keys([b"hot", b"cold1", b"cold2", b"kept"])
    # Promoting ``hot`` leaves its cold copy as a shadow, which its
    # deletion tombstones durably.
    assert engine.execute("GET", "hot") == b"v-hot"
    # No tombstone asks for durability: no barrier.
    fsyncs = engine.cold.device.fsyncs
    engine.execute("SET", "fresh", "v")
    assert engine.execute("DEL", "fresh") == 1
    assert engine.cold.device.fsyncs == fsyncs
    return engine


def _multi_key_del(engine):
    tombstones = engine.cold.tombstones
    assert engine.execute("DEL", "hot", "cold1", "cold2", "absent") == 3
    assert engine.cold.tombstones - tombstones == 3


def _multi_key_del_returned(recovered):
    # ``hot``'s archived copy does not resurrect through the replay
    # (which skips evictions): its DEL laid a durable tombstone.
    for key in ("hot", "cold1", "cold2", "absent", "fresh"):
        assert recovered.execute("GET", key) is None, key
        assert recovered.cold.slot_of(key.encode()) is None, key
    assert recovered.execute("GET", "kept") == b"v-kept"
    assert recovered.execute("DBSIZE") == 1


def _due_and_demoted():
    engine = make_engine("kept")
    for i in range(4):
        engine.execute("SET", f"due{i}", f"v{i}", "PX", 5000)
    engine.demote_keys([b"due0", b"due1", b"due2", b"due3", b"kept"])
    engine.clock.advance(10)
    return engine


def _expiring_tick(engine):
    expired = engine.stats.expired_keys
    engine.tick()
    assert engine.stats.expired_keys - expired == 4


def _expiring_tick_returned(recovered):
    assert recovered.cold.live_keys() == [b"kept"]
    for i in range(4):
        assert recovered.execute("GET", f"due{i}") is None
    assert recovered.execute("GET", "kept") == b"v-kept"


BATCH = [b"k0", b"k1", b"k2", b"k3", b"k4"]


def _batch():
    return make_engine(*map(bytes.decode, BATCH))


def _demotion_batch(engine):
    records = engine.aof.records_written
    tail = len(engine.aof.read_all())
    assert engine.demote_keys(BATCH) == 5
    assert engine.aof.records_written - records == 1
    assert replay_commands(engine.aof.read_all()[tail:]) == [[b"DEL", *BATCH]]


def _scoped_demotion_batch(engine):
    """Inside a barrier scope over the cold device, the seal is still a
    barrier as written: the hot copies' DEL is durable as it returns."""
    with BarrierScope(engine.cold.device):
        _demotion_batch(engine)


def _demotion_batch_returned(recovered):
    assert not recovered.inner.live_keys()
    for key in BATCH:
        assert recovered.execute("GET", key) == b"v-" + key


ALICE = [f"alice:{i}" for i in range(4)]


def _subjects():
    """alice's four records and bob's one, three of alice's and bob's
    archived in one segment."""
    with seeded_entropy(63):
        engine = make_engine()
        store = GDPRStore(kv=engine,
                          config=GDPRConfig(compact_on_erasure=True))
        for key in [*ALICE, "bob:0"]:
            owner = key.split(":")[0]
            store.put(key, owner[0].encode() * 16, GDPRMetadata(
                owner=owner, purposes=frozenset({"billing"})))
        engine.demote_keys([b"alice:1", b"alice:2", b"alice:3", b"bob:0"])
        return store


def _erasure(store):
    receipt = right_to_erasure(store, "alice")
    assert receipt.cold_segments_voided == 1
    assert not receipt.residual_in_aof


def _erasure_returned(recovered):
    # The subject marker survived on the cold device itself.
    kv = recovered.kv
    assert "alice" in kv.cold.erased_subjects
    assert kv.cold_keys_of_subject("alice") == []
    for key in ALICE:
        assert kv.execute("GET", key) is None
        assert kv.cold.slot_of(key.encode()) is None
    assert kv.cold.slot_of(b"bob:0") is not None
    assert recovered.index.keys() == ["bob:0"]   # only bob decrypts
    assert not recovered.keys_of_subject("alice")
    assert recovered.keys_of_subject("bob") == ["bob:0"]
    assert recovered.get("bob:0").value == b"b" * 16
    # Even with the keystore restored from a backup (the paper's
    # resurrection-by-restore concern), the cold device's own marker
    # keeps the archive void.
    archive = ColdSegmentStore(device=kv.cold.device, keystore=KeyStore())
    assert "alice" in archive.erased_subjects
    assert archive.keys_of_subject("alice") == []
    assert archive.lookup(b"alice:1") is None


#: name -> (build, the command, checks on the state its returned run
#: recovers).  Each command's cold writes -- tombstones, expiries, a
#: seal, the DEL's tombstones with the subject marker -- pay one barrier.
CASES = {
    "multi-key DEL": (_shadow_and_cold, _multi_key_del,
                      _multi_key_del_returned),
    "tick expiring cold keys": (_due_and_demoted, _expiring_tick,
                                _expiring_tick_returned),
    "demotion batch": (_batch, _demotion_batch, _demotion_batch_returned),
    "demotion batch in a barrier scope": (_batch, _scoped_demotion_batch,
                                          _demotion_batch_returned),
    "erasure's DEL and subject marker": (_subjects, _erasure,
                                         _erasure_returned),
}


def _engine(stack):
    return stack.kv if isinstance(stack, GDPRStore) else stack


def _state(stack):
    """key -> (value, deadline) of every key the engine serves; through
    a GDPR store, key -> value of every key it serves readable."""
    if isinstance(stack, GDPRStore):
        return {key: stack.get(key).value for key in stack.index.keys()}
    return {record.key: (record.value, record.expire_at)
            for record in stack.scan_records()}


def _devices(stack):
    audit = [stack.audit.log] if isinstance(stack, GDPRStore) else []
    return [*audit, _engine(stack).aof_log, _engine(stack).cold.device]


@pytest.mark.parametrize("case", sorted(CASES))
def test_power_loss_at_every_step_of_a_cold_barrier_command(case):
    """The command pays one cold barrier and leaves no unsynced cold
    byte.  Power lost before each device step of it, or right after it
    returns, then a restart (log replay plus cold recovery): every key
    recovers its state before the command or after it, a second power
    loss and restart agree, and the run that returned brings no
    deleted, expired or erased key back."""
    build, command, returned = CASES[case]

    def operation(stack):
        device = _engine(stack).cold.device
        fsyncs = device.fsyncs
        command(stack)
        assert device.fsyncs - fsyncs == 1 and device.unsynced_bytes == 0

    pre, ran = _state(build()), build()
    operation(ran)
    post = _state(ran)
    points = list(crashpoints(build, operation, _devices))
    assert len(points) > 1
    returned(points[-1].recovered)
    for point in points:
        pre_or_post(restarts_agree(point, _state), pre, post)


@pytest.mark.parametrize("variant", ["tiered-redislike", "tiered-relational"])
def test_a_cold_marker_only_for_an_erasure_that_reaches_segments(variant):
    """An erasure whose subject no sealed segment holds writes nothing
    to the cold device and pays no cold barrier (it used to write the
    subject marker and fsync it); one that reaches a segment writes the
    marker, and power loss on every device right after the receipt
    brings none of the subject's keys back."""
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](SimClock()),
                      config=GDPRConfig(compact_on_erasure=True))
    engine, cold = store.kv, store.kv.cold.device
    purposes = frozenset({"billing"})
    for owner in ("alice", "bob", "carol"):
        for i in range(3):
            store.put(f"{owner}:{i}", owner.encode() * 8,
                      GDPRMetadata(owner=owner, purposes=purposes))
    engine.demote_keys([b"bob:0", b"bob:1", b"carol:0"])
    assert engine.cold.segment_count == 1
    written, fsyncs = cold.total_length, cold.fsyncs
    receipt = right_to_erasure(store, "alice")
    assert receipt.cold_segments_voided == 0 and not receipt.residual_in_aof
    assert (cold.total_length, cold.fsyncs) == (written, fsyncs)
    assert "alice" not in engine.cold.erased_subjects
    receipt = right_to_erasure(store, "bob")
    assert receipt.cold_segments_voided == 1 and not receipt.residual_in_aof
    assert cold.fsyncs == fsyncs + 1 and cold.unsynced_bytes == 0
    FaultPlan(engine.aof_log, cold).power_loss()
    recovered = engine.reopen()
    assert "bob" in recovered.cold.erased_subjects
    for owner in ("alice", "bob"):
        for i in range(3):
            key = f"{owner}:{i}"
            assert recovered.execute("GET", key) is None, key
            assert recovered.cold.slot_of(key.encode()) is None, key
    assert recovered.cold.slot_of(b"carol:0") is not None
    assert recovered.execute("GET", "carol:1") is not None


class TestTornSeal:
    def test_power_loss_at_every_byte_of_the_seal_frame(self):
        """Whichever prefix of the frame reached the device before power
        failed, the segment is absent (a torn frame dropped) and the hot
        copies intact (removal follows the fsync barrier); with the last
        byte it is wholly there.  Never a partial directory."""
        scratch = ColdSegmentStore(device=AppendLog(clock=SimClock()))
        scratch.seal([ColdInput(b"pad", b"", None, None)], sealed_at=0.0)
        first = scratch.device.total_length
        scratch.seal([ColdInput(b"k2", b"v2", None, None),
                      ColdInput(b"k3", b"v3", None, None)], sealed_at=0.0)
        frame = scratch.device.read_all()[first:]     # segment seq 1
        for cut in range(len(frame) + 1):
            engine = make_engine()
            for i in range(4):
                engine.execute("SET", f"k{i}", f"v{i}")
            engine.demote_keys([b"k0", b"k1"])        # segment seq 0
            engine.cold.device.append(frame[:cut])
            engine.cold.device.flush_and_fsync()
            recovered = engine.reopen()
            whole = cut == len(frame)
            assert recovered.cold.torn_frames_dropped == \
                (0 < cut < len(frame)), cut
            assert recovered.cold.segment_count == (2 if whole else 1), cut
            assert recovered.cold.recovered_segments == (2 if whole else 1)
            # k2/k3 stayed hot: a whole seal holds their shadows.
            assert sorted(recovered.cold.live_keys()) == [b"k0", b"k1"], cut
            assert recovered.cold.stats()["shadows"] == \
                (2 if whole else 0), cut
            archive = ColdSegmentStore(device=engine.cold.device)
            assert sorted(archive.live_keys()) == \
                [b"k0", b"k1"] + ([b"k2", b"k3"] if whole else []), cut
            if whole:       # relocated frame: offsets are frame-relative
                assert archive.lookup(b"k3").stored == b"v3"
            for i in range(4):
                assert recovered.execute("GET", f"k{i}") == \
                    f"v{i}".encode(), (cut, i)
            assert recovered.execute("DBSIZE") == 4

    def test_crash_between_seal_and_hot_removal(self):
        engine = make_engine()
        engine.execute("SET", "dup", "value")
        # The seal completed (fsynced) but the crash hit before
        # demote_remove: the record exists in both tiers.
        engine.cold.seal([ColdInput(b"dup", b"stale", None, None)],
                         sealed_at=0.0)
        FaultPlan(engine.aof_log, engine.cold.device).power_loss()
        recovered = engine.reopen()
        # Hot is authoritative over the crash-window shadow.
        assert recovered.execute("GET", "dup") == b"value"
        assert recovered.execute("DBSIZE") == 1
        assert recovered.execute("KEYS", "*") == [b"dup"]
