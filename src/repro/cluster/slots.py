"""Hash-slot routing: CRC16(key) mod 16384 slots, slots owned by shards.

This is Redis Cluster's data-distribution model.  Every key hashes to
exactly one of :data:`NUM_SLOTS` slots (honoring ``{hash tag}`` notation,
so callers can force related keys onto one shard), and a :class:`SlotMap`
records which shard owns each slot.  Ownership changes *only* through
explicit resharding calls -- adding a shard assigns it no slots until a
reshard moves some -- which is what lets a cluster grow without silently
rerouting live keys.

Cross-shard invariants documented here because every layer above relies
on them:

* **One slot, one owner.**  ``shard_of_slot`` is total: at any instant
  every slot has exactly one owning shard, even mid-migration (the source
  remains the owner until the atomic flip in :meth:`end_migration`).
* **Live migration is a two-sided state.**  While a slot moves, the owner
  is *MIGRATING* and the destination is *IMPORTING*
  (:class:`MigrationState`).  Servers use these states to emit ``ASK``
  (key absent on the migrating source) and ``MOVED`` (request reached the
  importing target without ``ASKING``, or a stale client after the flip).
* **CROSSSLOT rule.**  Multi-key commands must keep all keys in one slot
  (colocate with ``{hash tag}``); a slot is the unit of migration, so the
  rule guarantees a multi-key command never straddles a moving boundary.
* **At most one migration per slot**, and :meth:`assign` refuses to move
  a slot that is mid-migration -- routing-only resharding and data-moving
  resharding cannot race on the same slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..common.errors import ClusterError, MigrationError
from ..common.hashing import crc16_xmodem

NUM_SLOTS = 16384

KeyLike = Union[str, bytes]


def hash_tag(key: KeyLike) -> bytes:
    """The byte span actually hashed: the first non-empty ``{...}`` group
    if present, else the whole key (Redis Cluster's hash-tag rule)."""
    raw = key.encode("utf-8") if isinstance(key, str) else bytes(key)
    start = raw.find(b"{")
    if start == -1:
        return raw
    end = raw.find(b"}", start + 1)
    if end == -1 or end == start + 1:
        return raw
    return raw[start + 1:end]


def slot_for_key(key: KeyLike) -> int:
    """Map a key to its hash slot in [0, NUM_SLOTS)."""
    return crc16_xmodem(hash_tag(key)) % NUM_SLOTS


@dataclass(frozen=True)
class MigrationState:
    """One slot mid-flight: ``source`` still owns it, ``target`` imports.

    Mirrors Redis Cluster's paired ``CLUSTER SETSLOT <slot> MIGRATING``
    (on the source) and ``IMPORTING`` (on the target) flags, kept in one
    record because this SlotMap is the cluster's shared topology view.
    """

    slot: int
    source: int
    target: int


class SlotMap:
    """Slot -> shard ownership table with explicit resharding.

    The default layout (:meth:`even`) gives shard ``j`` of ``n`` the
    contiguous range ``[j * NUM_SLOTS // n, (j + 1) * NUM_SLOTS // n)``,
    exactly how ``redis-cli --cluster create`` splits a fresh cluster.

    Beyond static ownership, the map tracks **live migrations**: a slot
    enters :meth:`begin_migration`, the migrator copies keys while servers
    answer with ASK/MOVED redirects, and :meth:`end_migration` flips the
    owner atomically (one assignment-table write).
    """

    def __init__(self, assignment: Sequence[int]) -> None:
        if len(assignment) != NUM_SLOTS:
            raise ClusterError(
                f"slot map must cover all {NUM_SLOTS} slots, "
                f"got {len(assignment)}")
        shards = set(assignment)
        if not shards or min(shards) < 0:
            raise ClusterError("slot map references negative shard ids")
        self._assignment: List[int] = list(assignment)
        self._num_shards = max(shards) + 1
        self._migrations: Dict[int, MigrationState] = {}

    @classmethod
    def even(cls, num_shards: int) -> "SlotMap":
        """Contiguous even split across ``num_shards`` shards."""
        if num_shards <= 0:
            raise ClusterError("a cluster needs at least one shard")
        assignment = [0] * NUM_SLOTS
        for shard in range(num_shards):
            start = shard * NUM_SLOTS // num_shards
            end = (shard + 1) * NUM_SLOTS // num_shards
            for slot in range(start, end):
                assignment[slot] = shard
        return cls(assignment)

    # -- lookup ------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards the map knows about (some may own no slots)."""
        return self._num_shards

    def shard_of_slot(self, slot: int) -> int:
        if not 0 <= slot < NUM_SLOTS:
            raise ClusterError(f"slot {slot} out of range")
        return self._assignment[slot]

    def shard_for_key(self, key: KeyLike) -> int:
        return self._assignment[slot_for_key(key)]

    # -- migration state ---------------------------------------------------

    def migration_of(self, slot: int) -> Optional[MigrationState]:
        """The in-flight migration of ``slot``, if any."""
        if not 0 <= slot < NUM_SLOTS:
            raise ClusterError(f"slot {slot} out of range")
        return self._migrations.get(slot)

    def importing_slots_of(self, shard: int) -> List[int]:
        return sorted(slot for slot, state in self._migrations.items()
                      if state.target == shard)

    def begin_migration(self, slot: int, target: int) -> MigrationState:
        """Mark ``slot`` MIGRATING from its owner / IMPORTING on
        ``target``.  Routing is unchanged -- the source stays the owner --
        but slot-aware servers start answering ASK/MOVED for it."""
        if not 0 <= slot < NUM_SLOTS:
            raise ClusterError(f"slot {slot} out of range")
        if not 0 <= target < self._num_shards:
            raise ClusterError(f"unknown shard {target}")
        if slot in self._migrations:
            raise MigrationError(
                f"slot {slot} is already migrating "
                f"({self._migrations[slot].source} -> "
                f"{self._migrations[slot].target})")
        source = self._assignment[slot]
        if source == target:
            raise MigrationError(
                f"slot {slot} already belongs to shard {target}")
        state = MigrationState(slot=slot, source=source, target=target)
        self._migrations[slot] = state
        return state

    def end_migration(self, slot: int) -> int:
        """Atomically flip ownership of ``slot`` to the importing target
        and clear the migration state.  Returns the new owner."""
        state = self._migrations.pop(slot, None)
        if state is None:
            raise MigrationError(f"slot {slot} is not migrating")
        self._assignment[slot] = state.target
        return state.target

    def abort_migration(self, slot: int) -> MigrationState:
        """Cancel an in-flight migration; ownership never changed, so the
        source simply stops being MIGRATING.  Returns the cleared state."""
        state = self._migrations.pop(slot, None)
        if state is None:
            raise MigrationError(f"slot {slot} is not migrating")
        return state

    # -- topology changes (always explicit) --------------------------------

    def add_shard(self) -> int:
        """Register a new, empty shard; routing is unchanged until slots
        are explicitly moved to it.  Returns the new shard id."""
        self._num_shards += 1
        return self._num_shards - 1

    def assign(self, slots: Iterable[int], shard: int) -> int:
        """Explicit *routing-only* resharding: move ``slots`` to
        ``shard``.  Returns how many slots actually changed owner.  Slots
        with an in-flight data migration are refused -- use the migrator's
        finish/abort path instead."""
        if not 0 <= shard < self._num_shards:
            raise ClusterError(f"unknown shard {shard}")
        moved = 0
        for slot in slots:
            if not 0 <= slot < NUM_SLOTS:
                raise ClusterError(f"slot {slot} out of range")
            if slot in self._migrations:
                raise MigrationError(
                    f"slot {slot} has an in-flight migration; finish or "
                    "abort it before reassigning")
            if self._assignment[slot] != shard:
                self._assignment[slot] = shard
                moved += 1
        return moved

class SlotPlacement:
    """Dynamic slot -> worker table for one shard's worker pool.

    The worker pool's default partition is static -- slot ``s`` belongs
    to worker ``s % K`` -- which leaves one core pinned whenever a
    zipfian-hot slot lands on it.  A ``SlotPlacement`` overlays that
    default with two kinds of exceptions, both maintained by the pool's
    rebalancer:

    * **overrides** -- a hot slot explicitly re-homed to a different
      worker (``assign``); per-key operations still serialize on exactly
      one core, it is just no longer ``s % K``;
    * **splits** -- the degenerate single-hot-slot case: the slot's
      *read-only* commands may fan across a set of workers
      (``split``), while its writes stay pinned to the slot's home
      worker, preserving the single-writer invariant.

    A worker-count change invalidates everything: the default mapping
    itself re-partitions, so :meth:`resize` drops all overrides and
    splits and bumps :attr:`version` (route caches key off it).
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("a placement needs at least one worker")
        self.num_workers = num_workers
        self.version = 0
        self._overrides: Dict[int, int] = {}
        self._splits: Dict[int, tuple] = {}

    def worker_of_slot(self, slot: int) -> int:
        """The slot's home worker: override if present, else
        ``slot % num_workers``.  Writes always land here."""
        home = self._overrides.get(slot)
        return home if home is not None else slot % self.num_workers

    def split_of_slot(self, slot: int) -> Optional[tuple]:
        """The worker set a split slot's reads may fan over (``None``
        when the slot is not split)."""
        return self._splits.get(slot)

    @property
    def overrides(self) -> Dict[int, int]:
        return dict(self._overrides)

    @property
    def splits(self) -> Dict[int, tuple]:
        return dict(self._splits)

    def assign(self, slot: int, worker: int) -> None:
        """Re-home ``slot`` to ``worker`` (reverting to the default
        mapping when they already agree)."""
        if not 0 <= slot < NUM_SLOTS:
            raise ClusterError(f"slot {slot} out of range")
        if not 0 <= worker < self.num_workers:
            raise ClusterError(f"unknown worker {worker}")
        if worker == slot % self.num_workers:
            self._overrides.pop(slot, None)
        else:
            self._overrides[slot] = worker
        self.version += 1

    def split(self, slot: int, workers: Sequence[int]) -> None:
        """Fan ``slot``'s read-only commands over ``workers`` (its home
        worker is always included, so a read can still ride the core
        that serializes the slot's writes)."""
        if not 0 <= slot < NUM_SLOTS:
            raise ClusterError(f"slot {slot} out of range")
        fan = sorted(set(workers) | {self.worker_of_slot(slot)})
        if any(not 0 <= worker < self.num_workers for worker in fan):
            raise ClusterError(f"split workers {list(workers)} out of range")
        if len(fan) < 2:
            raise ClusterError("a split needs at least two workers")
        self._splits[slot] = tuple(fan)
        self.version += 1

    def clear(self) -> None:
        """Drop every override and split (back to pure ``slot % K``)."""
        if self._overrides or self._splits:
            self._overrides.clear()
            self._splits.clear()
            self.version += 1

    def resize(self, num_workers: int) -> None:
        """The pool's worker count changed: the default mapping
        re-partitions, so every override and split is stale.  Drops
        them all and bumps :attr:`version`."""
        if num_workers < 1:
            raise ValueError("a placement needs at least one worker")
        self.num_workers = num_workers
        self._overrides.clear()
        self._splits.clear()
        self.version += 1
