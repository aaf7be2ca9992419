"""Property-based tests over the tiered keyspace: hot-only equivalence
under random op/demote interleavings, the cold store against a
dict-of-versions model of its frame log, bloom soundness, measured FP
rate, and no-resurrection of erased subjects across crashes."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.crypto.keystore import KeyStore
from repro.device.append_log import AppendLog
from repro.device.faults import FaultPlan
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.tiering import TieredEngine, TieringConfig
from repro.tiering.bloom import BloomFilter
from repro.tiering.segment import ColdInput, ColdSegmentStore

KEYS = [b"k0", b"k1", b"k2", b"k3", b"k4"]
VALUES = [b"v0", b"v1", b"v2"]

tier_ops = st.lists(
    st.one_of(
        st.tuples(st.just("SET"), st.sampled_from(KEYS),
                  st.sampled_from(VALUES)),
        st.tuples(st.just("GET"), st.sampled_from(KEYS)),
        st.tuples(st.just("DEL"), st.sampled_from(KEYS)),
        st.tuples(st.just("EXPIRE"), st.sampled_from(KEYS),
                  st.integers(1, 50)),
        st.tuples(st.just("advance"), st.integers(1, 30)),
        st.tuples(st.just("demote"),),
        st.tuples(st.just("tick"),),
    ),
    max_size=40)


def _make_tiered(clock):
    # appendfsync=always: the crash properties assert exact state
    # preservation, which needs every hot command durable (everysec
    # legitimately loses its fsync window).
    inner = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync="always"),
        clock=clock, aof_log=AppendLog(clock=clock))
    return TieredEngine(inner, tiering=TieringConfig(
        auto_demote=False, segment_max_records=3))


def _drive(engine, ops, tiered):
    replies = []
    for op in ops:
        if op[0] == "advance":
            engine.clock.advance(op[1])
        elif op[0] == "demote":
            if tiered:
                engine.demote_keys(engine.inner.live_keys(0))
        elif op[0] == "tick":
            engine.tick()
        else:
            replies.append(engine.execute(*op))
    return replies


@given(tier_ops)
# Once found by exploration and then replayed from .hypothesis/ forever:
# a promotion that ran the hot engine's maintenance cycle ahead of the
# command that triggered it, and DBSIZE counting an expired cold copy.
@example([("SET", b"k0", b"v0"), ("demote",), ("advance", 1),
          ("EXPIRE", b"k0", 1), ("EXPIRE", b"k0", 1)])
@example([("SET", b"k0", b"v0"), ("EXPIRE", b"k0", 2), ("demote",),
          ("advance", 1), ("EXPIRE", b"k0", 1)])
@example([("SET", b"k0", b"v0"), ("EXPIRE", b"k0", 1), ("demote",),
          ("advance", 1)])
@settings(max_examples=50, deadline=None, derandomize=True)
def test_tiered_equals_hot_only_under_random_ops(ops):
    """Any op sequence with demotions interleaved at arbitrary points
    observes exactly what a hot-only engine observes."""
    hot = KeyValueStore(StoreConfig(appendonly=True,
                                    appendfsync="always"),
                        clock=SimClock())
    tiered = _make_tiered(SimClock())
    hot_replies = _drive(hot, ops, tiered=False)
    tiered_replies = _drive(tiered, ops, tiered=True)
    assert tiered_replies == hot_replies
    hot_final = sorted((r.key, r.value, r.expire_at)
                       for r in hot.scan_records())
    tiered_final = sorted((r.key, r.value, r.expire_at)
                          for r in tiered.scan_records())
    assert tiered_final == hot_final
    assert tiered.execute("DBSIZE") == hot.execute("DBSIZE")


@given(tier_ops)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_crash_recovery_preserves_tiered_state(ops):
    """AOF replay plus cold-device recovery reconstruct the pre-crash
    keyspace: nothing hot is lost, nothing deleted resurrects."""
    clock = SimClock()
    engine = _make_tiered(clock)
    _drive(engine, ops, tiered=True)
    before = sorted((r.key, r.value) for r in engine.scan_records())
    # Crash: the engine reopens over both devices.
    FaultPlan(engine.aof_log, engine.cold.device).power_loss()
    recovered = engine.reopen()
    after = sorted((r.key, r.value) for r in recovered.scan_records())
    assert after == before


@given(st.sets(st.binary(min_size=1, max_size=12), min_size=1,
               max_size=40),
       st.integers(1, 5))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_sealed_keys_never_bloom_false_negative(keys, per_segment):
    """A sealed, untombstoned key is always found, and its owner is
    always positive in the subject bloom of the segment that holds it."""
    store = ColdSegmentStore(device=AppendLog(clock=SimClock()))
    ordered = sorted(keys)
    for start in range(0, len(ordered), per_segment):
        batch = ordered[start:start + per_segment]
        store.seal([ColdInput(k, b"v", None, k.hex()) for k in batch],
                   sealed_at=0.0)
    for key in ordered:
        entry = store.lookup(key)
        assert entry is not None and store.slot_of(key).seq == entry.seq
        assert entry.seq in store.segments_of_subject(key.hex())
        assert store.keys_of_subject(key.hex()) == [key]


MODEL_KEYS = [b"k%d" % i for i in range(6)]
MODEL_SUBJECTS = ["alice", "bob", "carol"]

archive_ops = st.lists(
    st.one_of(
        st.tuples(st.just("seal"),
                  st.lists(st.tuples(st.sampled_from(MODEL_KEYS),
                                     st.sampled_from(MODEL_SUBJECTS + [None]),
                                     st.binary(max_size=6)),
                           min_size=1, max_size=4,
                           unique_by=lambda item: item[0])),
        st.tuples(st.just("tombstone"), st.sampled_from(MODEL_KEYS)),
        st.tuples(st.sampled_from(["shadow", "release"]),
                  st.sampled_from(MODEL_KEYS)),
        st.tuples(st.just("erase"), st.sampled_from(MODEL_SUBJECTS)),
        st.tuples(st.just("recover"), st.booleans()),
    ),
    max_size=30)


class ArchiveModel:
    """The archive as its frame log defines it: every sealed version of
    every key, the tombstones, the subject erasures (each kills the
    subject's versions sealed before it) -- state is a replay of the
    log, the newest version of a key speaks for it, and power loss cuts
    the log back to its last fsync.  A shadow mark is RAM only: it hides
    one version from the cold-only views until that version dies, is
    released, or a restart forgets it."""

    def __init__(self):
        self.log = []
        self.durable = 0
        self.next_seq = 0
        self.shadows = set()        # (key, seq) of the marked versions

    def live(self):
        """key -> (seq, owner, value) of every live newest version."""
        versions, dead, erased = {}, {}, {}
        for frame in self.log:
            if frame[0] == "seal":
                for key, owner, value in frame[2]:
                    versions.setdefault(key, []).append(
                        (frame[1], owner, value))
            elif frame[0] == "tombstone":
                dead[frame[1]] = frame[2]
            else:
                erased[frame[1]] = frame[2]
        return {key: copies[-1] for key, copies in versions.items()
                if copies[-1][0] > dead.get(key, -1)
                and copies[-1][0] >= erased.get(copies[-1][1], 0)}

    def cold_only(self):
        """:meth:`live` without the shadows."""
        return {key: copy for key, copy in self.live().items()
                if (key, copy[0]) not in self.shadows}

    def mark(self, key, held):
        copy = self.live().get(key)
        if copy is not None:
            mark = self.shadows.add if held else self.shadows.discard
            mark((key, copy[0]))

    def segments_holding(self, subject):
        return {frame[1] for frame in self.log if frame[0] == "seal"
                and any(owner == subject for _, owner, _ in frame[2])}

    def seal(self, entries):
        self.log.append(("seal", self.next_seq, entries))
        self.next_seq += 1
        self.durable = len(self.log)

    def tombstone(self, key):
        if key not in self.live():
            return          # nothing to kill
        self.log.append(("tombstone", key, self.next_seq - 1))
        self.durable = len(self.log)

    def erase(self, subject, reached):
        if not reached:
            return          # no segment may hold the subject: no marker
        self.log.append(("erase", subject, self.next_seq))
        self.durable = len(self.log)

    def power_loss(self):
        del self.log[self.durable:]

    def restart(self):
        self.shadows.clear()


@given(archive_ops)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cold_store_equals_a_dict_of_versions_model(ops):
    """Random seal / tombstone / shadow / erase / recover sequences,
    every key looked up after every step: the resident directory, rebuilt
    or not, answers exactly what a replay of the frame log answers, less
    the shadows."""
    store = ColdSegmentStore(device=AppendLog(clock=SimClock()))
    plan = FaultPlan(store.device)
    model = ArchiveModel()
    for op in ops:
        if op[0] == "seal":
            store.seal([ColdInput(key, value, None, owner)
                        for key, owner, value in op[1]], sealed_at=0.0)
            model.seal(op[1])
        elif op[0] == "tombstone":
            store.tombstone_key(op[1])
            model.tombstone(op[1])
        elif op[0] in ("shadow", "release"):
            held = op[0] == "shadow"
            assert store.shadow(op[1], held) == (op[1] in model.live())
            model.mark(op[1], held)
        elif op[0] == "erase":
            reached = store.erase_subject(op[1])
            assert set(reached) >= model.segments_holding(op[1])
            model.erase(op[1], reached)
        elif op[0] == "recover":
            if op[1]:
                plan.power_loss()
                model.power_loss()
            store.device.reopen(store.device.clock)
            store = ColdSegmentStore(device=store.device)
            model.restart()
        live = model.cold_only()
        assert sorted(store.live_keys()) == sorted(live)
        assert store.live_count() == len(live)
        for key in MODEL_KEYS:
            entry = store.lookup(key)
            found = entry and (entry.seq, entry.owner, entry.stored)
            assert found == live.get(key), key
        for subject in MODEL_SUBJECTS:
            assert store.keys_of_subject(subject) == sorted(
                key for key, (_, owner, _) in live.items()
                if owner == subject)
            assert set(store.segments_of_subject(subject)) >= \
                model.segments_holding(subject)


def test_bloom_fp_rate_stays_under_configured_bound():
    """At full capacity the measured FP rate stays below the configured
    bound (the sizing targets half the bound as headroom)."""
    for fp_rate in (0.01, 0.05):
        bloom = BloomFilter.for_capacity(2000, fp_rate)
        bloom.update(b"member-%d" % i for i in range(2000))
        trials = 50_000
        hits = sum(1 for i in range(trials)
                   if b"absent-%d" % i in bloom)
        assert hits / trials < fp_rate


erasure_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5),
                  st.sampled_from(["alice", "bob"])),
        st.tuples(st.just("demote"),),
        st.tuples(st.just("get"), st.integers(0, 5)),
        st.tuples(st.just("crash"),),
    ),
    max_size=25)


@given(erasure_ops)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_erased_subject_never_readable_from_any_tier(ops):
    """After Art. 17 reaches the engine (hot DELs + cold subject marker
    + keystore erasure), no interleaving of demotions, promotions, and
    crashes makes any of the subject's values readable again."""
    clock = SimClock()
    keystore = KeyStore()
    engine = _make_tiered(clock)
    engine.attach_keystore(keystore)
    plan = FaultPlan(engine.aof_log, engine.cold.device)
    owners = {}

    def run(engine, op):
        if op[0] == "put":
            key, owner = f"r:{op[1]}", op[2]
            engine.execute("SET", key, b"secret-" + owner.encode())
            engine.annotate_metadata([(key, owner, [])])
            owners[key.encode()] = owner
        elif op[0] == "demote":
            engine.demote_keys(engine.inner.live_keys(0))
        elif op[0] == "get":
            engine.execute("GET", f"r:{op[1]}")
        elif op[0] == "crash":
            # The restarted engine runs on the same two devices.
            plan.power_loss()
            replacement = engine.reopen()
            for key, owner in owners.items():
                replacement.annotate_metadata([(key.decode(), owner, [])])
            return replacement
        return engine

    for op in ops:
        engine = run(engine, op)
    # Erase alice: the GDPR facade's sequence, at engine level.
    alice_keys = [k for k, o in owners.items() if o == "alice"]
    engine.erase_subject_cold("alice", alice_keys)
    keystore.erase_key("alice")
    # No interleaving of crash/demote/promote brings anything back.
    for op in ops + [("crash",), ("demote",), ("crash",)]:
        if op[0] == "put":
            continue                      # no new writes post-erasure
        engine = run(engine, op)
    for key in alice_keys:
        assert engine.execute("GET", key) is None, key
        assert not engine.has_live_key(key)
    assert engine.cold_keys_of_subject("alice") == []
    assert all(b"secret-alice" != r.value for r in engine.scan_records())
