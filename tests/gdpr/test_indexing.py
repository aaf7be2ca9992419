"""Tests for the metadata secondary indexes."""

import random
from dataclasses import replace

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

    def test_owners_listing(self):
        index = MetadataIndex()
        index.add("k1", meta(owner="zed"))
        index.add("k2", meta(owner="amy"))
        assert index.owners() == ["amy", "zed"]


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


class TestRecipientIndex:
    def test_keys_shared_with(self):
        index = MetadataIndex()
        index.add("k1", meta(shared=("partner",)))
        index.add("k2", meta())
        assert index.keys_shared_with("partner") == ["k1"]
        assert index.keys_shared_with("nobody") == []


class TestExpiryIndex:
    def test_expired_keys(self):
        index = MetadataIndex()
        index.add("soon", meta(ttl=10.0, created_at=0.0))
        index.add("later", meta(ttl=100.0, created_at=0.0))
        assert index.expired_keys(now=50.0) == ["soon"]
        assert index.expired_keys(now=50.0) == []  # consumed

    def test_next_deadline(self):
        index = MetadataIndex()
        index.add("a", meta(ttl=30.0, created_at=0.0))
        index.add("b", meta(ttl=10.0, created_at=0.0))
        assert index.next_deadline() == 10.0

    def test_next_deadline_skips_removed(self):
        index = MetadataIndex()
        index.add("a", meta(ttl=10.0, created_at=0.0))
        index.add("b", meta(ttl=30.0, created_at=0.0))
        index.remove("a")
        assert index.next_deadline() == 30.0

    def test_no_deadline(self):
        index = MetadataIndex()
        index.add("a", meta())
        assert index.next_deadline() is None


class TestExpiryHeapUnderOverwrites:
    """An overwrite under an unchanged deadline used to push one more
    ``(deadline, key)`` onto the heap (``strict_kv``: 1 600 keys, 12 475
    entries); only a deadline that is not registered may push."""

    KEYS = [f"k{i}" for i in range(10)]

    def _check(self, index, oracle, now):
        """expired_keys / next_deadline against a scan of ``oracle``
        (key -> registered deadline)."""
        due = sorted(key for key, deadline in oracle.items()
                     if deadline <= now)
        assert sorted(index.expired_keys(now)) == due
        for key in due:
            del oracle[key]
        assert index.next_deadline() == min(oracle.values(), default=None)

    def test_same_object_overwrites_push_nothing(self):
        index = MetadataIndex()
        held = {key: meta(owner=key, ttl=3600.0, created_at=1.0)
                for key in self.KEYS}
        oracle = {}
        for step in range(10_000):
            key = self.KEYS[step % len(self.KEYS)]
            index.add(key, held[key])
            oracle[key] = held[key].expire_at()
            self._check(index, oracle, now=float(step % 100))
            assert len(index._expiry_heap) == min(step + 1, len(self.KEYS))
        assert index.keys_of_owner("k3") == ["k3"]
        assert index.get_metadata("k3") is held["k3"]

    def test_equal_deadline_distinct_object_pushes_nothing(self):
        """``update_metadata`` changing purposes: new object, same
        deadline -- re-indexed, heap entry reused."""
        index = MetadataIndex()
        oracle = {}
        for step in range(10_000):
            key = self.KEYS[step % len(self.KEYS)]
            purpose = "billing" if step % 3 else "ads"
            index.add(key, meta(purposes=(purpose,), ttl=50.0,
                                created_at=100.0))
            oracle[key] = 150.0
            self._check(index, oracle, now=float(step % 100))
            assert index.get_metadata(key).purposes == {purpose}
            assert len(index._expiry_heap) <= len(self.KEYS)
        assert sorted(index.keys_for_purpose("billing")
                      + index.keys_for_purpose("ads")) == sorted(self.KEYS)

    def test_heap_is_bounded_by_keys_plus_registered_deadlines(self):
        """A seeded mix of the three overwrite shapes with deadlines
        passing underneath: same object, equal copy, changed TTL.  A key
        popped by ``expired_keys`` stays indexed, so re-adding the *same
        object* afterwards must register its deadline again -- identity
        alone is not a no-op."""
        rng = random.Random(20)
        index = MetadataIndex()
        held, oracle = {}, {}
        registrations = 0
        now = 0.0
        for step in range(10_000):
            key = rng.choice(self.KEYS)
            shape = rng.random()
            if key not in held or shape < 0.05:
                held[key] = meta(owner=key, ttl=rng.choice([5.0, 40.0, 300.0]),
                                 created_at=now)
            elif shape < 0.25:
                held[key] = replace(held[key])      # equal, not identical
            deadline = held[key].expire_at()
            registrations += oracle.get(key) != deadline
            index.add(key, held[key])
            oracle[key] = deadline
            now += rng.choice([0.0, 0.0, 0.01, 0.05])
            self._check(index, oracle, now)
            assert len(index._expiry_heap) <= len(self.KEYS) + registrations
        # The mix did exercise re-registration of an unchanged object.
        assert len(self.KEYS) < registrations < 1_500

    def test_same_object_after_its_deadline_was_popped_registers_again(self):
        index = MetadataIndex()
        held = meta(ttl=10.0, created_at=0.0)
        index.add("k", held)
        assert index.expired_keys(now=10.0) == ["k"]
        assert index.next_deadline() is None
        index.add("k", held)
        assert index.next_deadline() == 10.0
        assert index.expired_keys(now=10.0) == ["k"]


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
        assert index.next_deadline() is None

    def test_rebuild(self):
        index = MetadataIndex()
        index.add("old", meta())
        count = index.rebuild([("n1", meta()), ("n2", meta(owner="bob"))])
        assert count == 2
        assert "old" not in index
        assert index.keys_of_owner("alice") == ["n1"]
