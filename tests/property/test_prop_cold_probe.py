"""Equivalence of the pre-hashed bloom probe and the one-walk cold point
path with the formulation they replaced.

The oracle below is the previous implementation, kept verbatim: one
SHA-256 per filter per probe, a generator of bit positions, ``all()``
over it.  The device format (``BloomFilter.to_bytes``) and every counter
a run leaves behind must not be able to tell the two apart.
"""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.common.resp import RespError
from repro.device.append_log import AppendLog
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.tiering import TieredEngine, TieringConfig
from repro.tiering.bloom import BloomFilter
from repro.tiering.segment import ColdInput, ColdSegmentStore

items = st.binary(min_size=0, max_size=16)


def _oracle_probes(bloom, item):
    digest = hashlib.sha256(item).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1  # odd => full cycle
    for i in range(bloom.hash_count):
        yield (h1 + i * h2) % bloom.bit_count


def _oracle_add(bloom, item):
    for idx in _oracle_probes(bloom, item):
        bloom._bits[idx >> 3] |= 1 << (idx & 7)
    bloom.added += 1


def _oracle_contains(bloom, item):
    return all(bloom._bits[idx >> 3] & (1 << (idx & 7))
               for idx in _oracle_probes(bloom, item))


@given(st.integers(1, 300), st.integers(1, 12),
       st.lists(items, max_size=30), st.lists(items, max_size=30))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_prehashed_probe_equals_oracle(bit_count, hash_count, members,
                                       probes):
    bloom = BloomFilter(bit_count, hash_count)
    oracle = BloomFilter(bit_count, hash_count)
    for member in members:
        bloom.add(member)
        _oracle_add(oracle, member)
    # Same bits set, same bytes on the device.
    assert bloom.to_bytes() == oracle.to_bytes()
    assert bloom.byte_size() == len(oracle.to_bytes())
    assert bloom.fill_ratio() == \
        sum(bin(byte).count("1") for byte in oracle._bits) / bit_count
    for item in members + probes:
        expected = _oracle_contains(oracle, item)
        assert (item in bloom) == expected
        assert bloom.may_contain(item) == expected
        assert bloom.contains_hashed(*BloomFilter.hash_pair(item)) \
            == expected
    assert all(member in bloom for member in members)


STORE_KEYS = [b"k%d" % i for i in range(8)]
SUBJECTS = ["alice", "bob", None]

store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("seal"),
                  st.lists(st.tuples(st.sampled_from(STORE_KEYS),
                                     st.sampled_from(SUBJECTS)),
                           min_size=1, max_size=4,
                           unique_by=lambda pair: pair[0])),
        st.tuples(st.just("tombstone"), st.sampled_from(STORE_KEYS)),
        st.tuples(st.just("erase"), st.sampled_from(["alice", "bob"])),
        st.tuples(st.just("lookup"), st.sampled_from(STORE_KEYS)),
    ),
    max_size=30)


@given(store_ops, st.sampled_from([0.01, 0.3]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_may_contain_is_the_live_range_bloom_answer(ops, fp_rate):
    """``may_contain`` is true iff some segment newer than the key's
    tombstone has a positive filter, and a successful ``lookup`` implies
    it -- which is why the engine may ask ``lookup`` alone."""
    store = ColdSegmentStore(device=AppendLog(clock=SimClock()),
                             fp_rate=fp_rate)
    for op in ops:
        if op[0] == "seal":
            store.seal([ColdInput(key, b"v", None, owner)
                        for key, owner in op[1]], sealed_at=0.0)
        elif op[0] == "tombstone":
            store.tombstone_key(op[1])
        elif op[0] == "erase":
            reached = store.erase_subject(op[1])
            assert reached == [
                seq for seq, info in store._segments.items()
                if _oracle_contains(info.subject_bloom, op[1].encode())]
        else:
            store.lookup(op[1])
        for key in STORE_KEYS + [b"absent"]:
            dead_upto = store._dead_upto.get(key, -1)
            positive = [seq for seq, info in store._segments.items()
                        if _oracle_contains(info.key_bloom, key)]
            assert store.may_contain(key) == \
                any(seq > dead_upto for seq in positive)
            assert store.may_contain(key, ignore_tombstones=True) == \
                bool(positive)
            if store.lookup(key) is not None:
                assert store.may_contain(key)


def _seeded_mixed_run(fp_rate):
    clock = SimClock()
    inner = KeyValueStore(StoreConfig(appendonly=True), clock=clock,
                          aof_log=AppendLog(clock=clock))
    engine = TieredEngine(inner, tiering=TieringConfig(
        auto_demote=False, segment_max_records=4, bloom_fp_rate=fp_rate))
    rng = random.Random(1515)
    keys = [b"key:%03d" % i for i in range(120)]
    for key in keys:
        engine.execute("SET", key, b"v-" + key)
    engine.demote_keys(keys)
    for step in range(600):
        key, other, draw = rng.choice(keys), rng.choice(keys), rng.random()
        if draw < 0.35:
            engine.execute("GET", key)
        elif draw < 0.55:
            engine.execute("SET", key, b"w%d" % step)
        elif draw < 0.70:
            engine.execute("DEL", key, other)
        elif draw < 0.80:
            try:
                engine.execute("RENAME", key, other)
            except RespError:
                pass
        elif draw < 0.90:
            engine.execute("SET", key, b"nx%d" % step, "NX")
        else:
            engine.execute("GET", b"absent:%d" % step)
        if step % 50 == 49:
            engine.demote_keys(engine.inner.live_keys(0))
    return engine.cold_stats()


def test_one_walk_leaves_the_counters_of_two():
    """Recorded at the parent of the change that folded the
    ``may_contain`` gate into ``lookup``, before any source edit: the
    same segments are decompressed, the same false positives counted."""
    unchanged = dict(segments=102, sealed_entries=388, tombstones=377,
                     promotions=158, demotions=388)
    recorded = {
        0.01: dict(unchanged, bloom_false_positives=475,
                   decompressions=844),
        0.2: dict(unchanged, bloom_false_positives=1849,
                  decompressions=2103),
    }
    for fp_rate, expected in recorded.items():
        stats = _seeded_mixed_run(fp_rate)
        assert {name: stats[name] for name in expected} == expected
