"""Tests for the metadata secondary indexes."""

import random
from dataclasses import replace

import pytest

from repro.gdpr.indexing import MetadataIndex
from repro.gdpr.metadata import GDPRMetadata


def meta(owner="alice", purposes=("billing",), objections=(),
         shared=(), ttl=None, created_at=0.0):
    return GDPRMetadata(owner=owner, purposes=frozenset(purposes),
                        objections=frozenset(objections),
                        shared_with=frozenset(shared), ttl=ttl,
                        created_at=created_at)


class TestOwnerIndex:
    def test_keys_of_owner(self):
        index = MetadataIndex()
        index.add("k1", meta())
        index.add("k2", meta())
        index.add("k3", meta(owner="bob"))
        assert index.keys_of_owner("alice") == ["k1", "k2"]
        assert index.keys_of_owner("bob") == ["k3"]

    def test_unknown_owner_empty(self):
        assert MetadataIndex().keys_of_owner("ghost") == []

    def test_remove_updates_owner_index(self):
        index = MetadataIndex()
        index.add("k1", meta())
        index.remove("k1")
        assert index.keys_of_owner("alice") == []


class TestPurposeIndex:
    def test_keys_for_purpose(self):
        index = MetadataIndex()
        index.add("k1", meta(purposes=("billing", "ads")))
        index.add("k2", meta(purposes=("billing",)))
        assert index.keys_for_purpose("ads") == ["k1"]
        assert index.keys_for_purpose("billing") == ["k1", "k2"]

    def test_objections_excluded(self):
        index = MetadataIndex()
        index.add("k1", meta(purposes=("billing",), objections=("ads",)))
        index.add("k2", meta(purposes=("ads",)))
        assert index.keys_for_purpose("ads") == ["k2"]

    def test_reindex_after_objection_update(self):
        index = MetadataIndex()
        index.add("k1", meta(purposes=("ads",)))
        updated = index.get_metadata("k1").with_objection("ads")
        index.add("k1", updated)
        assert index.keys_for_purpose("ads") == []

    def test_purposes_listing(self):
        index = MetadataIndex()
        index.add("k1", meta(purposes=("b", "a")))
        assert index.purposes() == ["a", "b"]


def _names_held(index):
    """Every string the index holds, with multiplicity, over all of its
    tables (``{attr: {name: set-of-keys}}`` and ``{key: metadata}``)."""
    held = []
    for table in vars(index).values():
        for name, entry in table.items():
            held.append(name)
            if isinstance(entry, set):
                held.extend(entry)
    return held


class TestExpiryIndex:
    """The index keeps no deadlines: the engine's expiry is the only
    deadline authority, so nothing here pops, orders or outlives a key."""

    def test_expired_keys(self):
        index = MetadataIndex()
        index.add("soon", meta(ttl=10.0, created_at=0.0))
        with pytest.raises(AttributeError):
            index.expired_keys(now=50.0)
        assert "soon" in index

    def test_next_deadline(self):
        index = MetadataIndex()
        index.add("a", meta(ttl=30.0, created_at=0.0))
        with pytest.raises(AttributeError):
            index.next_deadline()

    def test_next_deadline_skips_removed(self):
        index = MetadataIndex()
        index.add("a", meta(ttl=10.0, created_at=0.0))
        index.add("b", meta(ttl=30.0, created_at=0.0))
        index.remove("a")
        assert "a" not in _names_held(index)
        assert index.keys_of_owner("alice") == ["b"]

    def test_no_deadline(self):
        timed, untimed = MetadataIndex(), MetadataIndex()
        timed.add("a", meta(ttl=5.0))
        untimed.add("a", meta())
        assert sorted(_names_held(timed)) == sorted(_names_held(untimed))


class TestExpiryHeapUnderOverwrites:
    """Overwrites never grow the index: every table it keeps names only
    live keys, once per attribute they carry (the expiry heap it once
    kept grew to 12 475 entries for 1 600 keys on ``strict_kv``, and kept
    an erased key's name until its deadline passed)."""

    KEYS = [f"k{i}" for i in range(10)]

    def test_same_object_overwrites_push_nothing(self):
        index = MetadataIndex()
        held = {key: meta(owner=key, ttl=3600.0, created_at=1.0)
                for key in self.KEYS}
        for step in range(10_000):
            key = self.KEYS[step % len(self.KEYS)]
            index.add(key, held[key])
            assert len(_names_held(index)) \
                <= 5 * min(step + 1, len(self.KEYS))
        assert index.keys_of_owner("k3") == ["k3"]
        assert index.get_metadata("k3") is held["k3"]

    def test_equal_deadline_distinct_object_pushes_nothing(self):
        """``update_metadata`` changing purposes: new object, same
        deadline -- re-indexed, nothing left behind."""
        index = MetadataIndex()
        for step in range(10_000):
            key = self.KEYS[step % len(self.KEYS)]
            purpose = "billing" if step % 3 else "ads"
            index.add(key, meta(purposes=(purpose,), ttl=50.0,
                                created_at=100.0))
            assert index.get_metadata(key).purposes == {purpose}
            assert len(_names_held(index)) <= 5 * len(self.KEYS) + 4
        assert sorted(index.keys_for_purpose("billing")
                      + index.keys_for_purpose("ads")) == sorted(self.KEYS)

    def test_heap_is_bounded_by_keys_plus_registered_deadlines(self):
        """A seeded mix of the three overwrite shapes and removals: same
        object, equal copy, changed TTL.  At every step the index names
        exactly the live keys."""
        rng = random.Random(20)
        index = MetadataIndex()
        held = {}
        for _ in range(10_000):
            key = rng.choice(self.KEYS)
            shape = rng.random()
            if shape < 0.1:
                index.remove(key)
                held.pop(key, None)
            else:
                if key not in held or shape < 0.15:
                    held[key] = meta(owner="alice",
                                     ttl=rng.choice([5.0, 40.0, 300.0]))
                elif shape < 0.35:
                    held[key] = replace(held[key])  # equal, not identical
                index.add(key, held[key])
            names = set(_names_held(index))
            assert names & set(self.KEYS) == set(held)
            assert index.keys_of_owner("alice") == sorted(held)
        assert len(index) == len(held)

    def test_same_object_after_its_deadline_was_popped_registers_again(self):
        """Re-adding the same object is a no-op whether or not its
        deadline has passed: the engine expires the record and its
        deletion removes the entry."""
        index = MetadataIndex()
        held = meta(ttl=10.0, created_at=0.0)
        index.add("k", held)
        before = _names_held(index)
        index.add("k", held)
        assert _names_held(index) == before
        assert index.remove("k") is held
        assert _names_held(index) == []


class TestLifecycle:
    def test_contains_and_len(self):
        index = MetadataIndex()
        index.add("k", meta())
        assert "k" in index and len(index) == 1

    def test_readd_replaces(self):
        index = MetadataIndex()
        index.add("k", meta(owner="alice"))
        index.add("k", meta(owner="bob"))
        assert index.keys_of_owner("alice") == []
        assert index.keys_of_owner("bob") == ["k"]
        assert len(index) == 1

    def test_remove_returns_metadata(self):
        index = MetadataIndex()
        m = meta()
        index.add("k", m)
        assert index.remove("k") == m
        assert index.remove("k") is None

    def test_clear(self):
        index = MetadataIndex()
        index.add("k", meta(ttl=5.0))
        index.clear()
        assert len(index) == 0
        assert _names_held(index) == []

    def test_rebuild(self):
        index = MetadataIndex()
        index.add("old", meta())
        count = index.rebuild([("n1", meta()), ("n2", meta(owner="bob"))])
        assert count == 2
        assert "old" not in index
        assert index.keys_of_owner("alice") == ["n1"]
