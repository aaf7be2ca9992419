"""Live slot migration: move a slot's *data* between shards, safely.

PR 1's :meth:`SlotMap.assign` reshards *routing* only -- keys already
written stay stranded on the old shard.  This module adds the Redis
Cluster-style data path: a :class:`SlotMigrator` walks a slot's keys on
the source node, ships each key's ``DUMP`` payload to the target, and
**flips slot ownership atomically at the end**, while the slot's
:class:`~repro.cluster.slots.MigrationState` makes servers answer
``ASK``/``MOVED`` so live clients never observe a torn keyspace.

Cross-shard invariants the migrator maintains:

* **The source stays authoritative until the flip.**  Copies on the
  importing target are shadows: reads and writes of existing keys keep
  hitting the source, and any source write *after* a key was copied
  re-queues it (rsync-style) so the target can never win with stale data.
* **Deletes cascade.**  A key deleted on the source mid-migration (an
  Art. 17 erasure, a DEL, an expiry) is immediately deleted from the
  target's shadow copy too -- ownership flip can never resurrect erased
  personal data.  Conversely a shadow copy deleted on the target is
  re-queued for copy while the source still holds it.
* **New keys are born on the target.**  A key created mid-migration in a
  migrating slot is ASK-redirected to the importing target, so the
  source's key set only shrinks.
* **Deadlines travel absolute.**  The source reports a key's deadline as
  ``PEXPIRETIME`` and the target restores it with ``RESTORE ... ABSTTL``,
  so it neither rounds to whole milliseconds of remaining time nor moves
  with the target's clock; a deadline already past leaves no copy.
* **GDPR metadata travels with the ciphertext.**  Each node's *taps*
  (:class:`~repro.gdpr.node.GDPRMigrationTaps` on a GDPR node, no-ops on a
  plain engine) hand the migrator the record's metadata to ship beside
  the sealed envelope (the shared keystore makes it readable on any
  shard, and crypto-erasure still voids it everywhere), register the key
  in the target's metadata index and location ledger, and append
  ``migrate-*`` records to **both** shards' hash-chained audit logs --
  the handoff itself is compliance evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

from ..common.errors import MigrationError
from ..kvstore.aof import mentioned_keys
from ..kvstore.commands import spec_of
from .slots import SlotMap, slot_for_key


@dataclass
class MigrationReceipt:
    """What a finished (or aborted) slot migration did, and what it cost."""

    slot: int
    source: int
    target: int
    started_at: float
    completed_at: float = 0.0
    keys_moved: List[str] = field(default_factory=list)
    bytes_moved: int = 0
    recopied: int = 0           # dirty re-copies forced by source writes
    aborted: bool = False
    residual_in_source_aof: bool = False
    replicas_synced: int = 0    # keys full-synced onto the destination's
                                # replicas at the ownership flip

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at


class MigrationTaps:
    """A plain engine's node: nothing above the engine to keep current.
    (A GDPR node's taps are :class:`repro.gdpr.node.GDPRMigrationTaps`.)"""

    def began(self, slot: int, source: int, target: int) -> None:
        pass

    def metadata(self, key: bytes) -> bytes:
        return b""

    def copied(self, key: bytes, header: bytes, slot: int, peer: int,
               returned: bool) -> None:
        pass

    def evicted(self, key: bytes, slot: int) -> None:
        pass

    def releasing(self, key: bytes, slot: int, peer: int,
                  handoff: bool) -> None:
        pass

    def ended(self, slot: int, detail: str, aborted: bool) -> None:
        pass


class SlotMigrator:
    """Live migration of one slot between two :class:`ClusterNode` shards.

    ``begin`` (constructor) -> any number of ``step`` calls, interleaved
    with live traffic -> ``finish`` (drain + atomic ownership flip +
    source cleanup) or ``abort`` (target cleanup, ownership unchanged).

    Keys travel as ``DUMP`` payloads restored with ``RESTORE ... REPLACE``
    (so re-copies of dirtied keys are idempotent) under their absolute
    deadline.  Each payload, with the metadata the source's taps ship
    beside it, is charged to *both* shard clocks at the inter-node link's
    bandwidth and latency -- migration competes with foreground traffic
    for simulated time, which is exactly the "cost of compliance under
    cluster operations" the benchmarks measure.

    Concurrent :class:`~repro.cluster.client.ClusterClient` traffic keeps
    working throughout: the source serves keys it still holds, ASKs for
    keys that do not exist (new keys are created on the target via
    ``ASKING``), and after :meth:`finish` stale clients are MOVED to the
    new owner.
    """

    def __init__(self, cluster, slot: int, target: int) -> None:
        self._cluster = cluster
        self.slots: SlotMap = cluster.slots
        source = self.slots.shard_of_slot(slot)
        if not 0 <= target < len(cluster.nodes):
            raise MigrationError(
                f"target shard {target} has no node in this cluster")
        self._source_node = cluster.nodes[source]
        self._target_node = cluster.nodes[target]
        self.slots.begin_migration(slot, target)
        self.slot, self.source, self.target = slot, source, target
        self._pending: List[bytes] = []
        self._pending_set: Set[bytes] = set()
        self._moved: Set[bytes] = set()
        self._bytes_moved = 0
        self._recopied = 0
        self._done = False
        # Re-entrancy guard: listener callbacks ignore mutations the
        # migrator itself performs (RESTORE's implicit delete, handoff
        # DELs at finish, rollback DELs at abort).
        self._suspended = False
        for key in self._slot_keys(self._source_node):
            self._enqueue(key)
        self.receipt = MigrationReceipt(
            slot=slot, source=self.source, target=target,
            started_at=cluster.clock.now())
        self._source_node.store.add_write_listener(self._on_source_write)
        self._source_node.store.add_deletion_listener(self._on_source_delete)
        self._target_node.store.add_deletion_listener(self._on_target_delete)
        for node in (self._source_node, self._target_node):
            node.taps.began(slot, self.source, target)

    # -- bookkeeping -------------------------------------------------------

    @property
    def keys_pending(self) -> int:
        return len(self._pending)

    def _enqueue(self, key: bytes) -> None:
        if key not in self._pending_set:
            self._pending.append(key)
            self._pending_set.add(key)

    def _on_source_write(self, db_index: int, record: List[bytes]) -> None:
        """Source keys in this slot changed: (re-)queue them for copy."""
        if self._suspended or self._done:
            return
        for key in spec_of(record[0].upper()).keys(record):
            if slot_for_key(key) != self.slot:
                continue
            if key in self._moved:
                self._moved.discard(key)
                self._recopied += 1
            self._enqueue(key)

    def _on_source_delete(self, db_index: int, key: bytes, reason: str,
                          when: float) -> None:
        """Source copy died (erasure/DEL/expiry): kill the shadow too."""
        if self._suspended or self._done or key not in self._moved:
            return
        self._moved.discard(key)
        self._suspended = True
        try:
            self._target_node.store.execute("DEL", key)
            self._target_node.taps.evicted(key, self.slot)
        finally:
            self._suspended = False

    def _on_target_delete(self, db_index: int, key: bytes, reason: str,
                          when: float) -> None:
        """Shadow copy died on the target while the source still owns the
        key: re-queue so the slot flip does not lose it."""
        if self._suspended or self._done or key not in self._moved:
            return
        self._moved.discard(key)
        self._recopied += 1
        self._enqueue(key)

    # -- lifecycle ---------------------------------------------------------

    def step(self, max_keys: int = 1) -> int:
        """Copy up to ``max_keys`` pending keys to the target; returns how
        many were copied.  Call repeatedly, interleaved with live traffic,
        to spread migration cost over time."""
        if self._done:
            raise MigrationError(
                f"migration of slot {self.slot} already completed")
        copied = 0
        while self._pending and copied < max_keys:
            key = self._pending.pop(0)
            self._pending_set.discard(key)
            self._suspended = True
            try:
                nbytes = self._copy(key, self._source_node,
                                    self._target_node, returned=False)
            finally:
                self._suspended = False
            if nbytes is None:
                continue        # key vanished under us (erased/expired)
            self._moved.add(key)
            self._bytes_moved += nbytes
            copied += 1
        return copied

    def run(self, batch_size: int = 16) -> MigrationReceipt:
        """Drive the whole migration to completion in one call."""
        while self._pending:
            self.step(batch_size)
        return self.finish()

    def run_as_events(self, clock, batch_size: int = 16,
                      interval: float = 1e-4,
                      on_done: Optional[Callable[[MigrationReceipt],
                                                 None]] = None) -> None:
        """Drive this migration from scheduled events on ``clock``: one
        ``step(batch_size)`` per event, ``interval`` seconds apart, until
        drained, then ``finish()``.

        This is how migrations coexist with foreground traffic on the
        event core: each step is just another event interleaved with
        deliveries and loop ticks, and several migrators scheduled on one
        clock progress as interleaved event streams (the ``rebalance``
        path) instead of one slot monopolizing the timeline.
        """
        if not hasattr(clock, "schedule_after"):
            raise MigrationError(
                "event-driven migration needs a scheduling clock "
                "(SimClock)")

        def step_event() -> None:
            if self._done:
                return
            if self._pending:
                self.step(batch_size)
            if self._pending:
                clock.schedule_after(interval, step_event,
                                     label=f"migrate-{self.slot}")
            else:
                receipt = self.finish()
                if on_done is not None:
                    on_done(receipt)

        clock.schedule_after(interval, step_event,
                             label=f"migrate-{self.slot}")

    def finish(self) -> MigrationReceipt:
        """Drain stragglers, flip slot ownership atomically, then remove
        the handed-off copies from the source.

        With replication attached, the flip hands the replica set off
        too: the destination's replicas are full-synced from their (new
        owner) primary, so the moved slot is replicated the moment it
        starts serving; the source's replicas converge through the
        handoff DELs travelling their normal delayed streams.  (Like a
        real RDB-based resync, the full sync also fast-forwards the
        destination's unrelated in-flight stream -- replica lag on that
        shard snaps to zero at the flip.)
        """
        if self._done:
            raise MigrationError(
                f"migration of slot {self.slot} already completed")
        while self._pending:
            self.step(len(self._pending))
        self.slots.end_migration(self.slot)
        self._done = True
        self._suspended = True
        try:
            for key in sorted(self._moved):
                self._drop(self._source_node, key, self.target, handoff=True)
        finally:
            self._suspended = False
        self._detach()
        replication = self._cluster.replication
        synced = 0
        if replication is not None:
            synced = replication.full_sync_shard(self.target)
        self._fill_receipt(aborted=False)
        self.receipt.replicas_synced = synced
        self._end(f"slot {self.slot}: {len(self.receipt.keys_moved)} keys, "
                  f"{self.receipt.bytes_moved} bytes", aborted=False)
        return self.receipt

    def abort(self) -> MigrationReceipt:
        """Cancel: delete the shadow copies from the target and bring
        home any key *born* on the target mid-migration (via ASKING);
        ownership never changed, so the source resumes exclusive service
        of the complete key set."""
        if self._done:
            raise MigrationError(
                f"migration of slot {self.slot} already completed")
        self.slots.abort_migration(self.slot)
        self._done = True
        self._suspended = True
        try:
            for key in self._slot_keys(self._target_node):
                if not self._source_node.store.has_live_key(key, 0):
                    # Born on the target mid-migration (ASK-redirected
                    # new key).  Abandoning it would lose an
                    # acknowledged write: move it back.
                    self._copy(key, self._target_node, self._source_node,
                               returned=True)
                # Otherwise a shadow copy (possibly stale: the source may
                # have been written after the copy).  The source is
                # authoritative -- just drop the shadow.
                self._drop(self._target_node, key, self.source,
                           handoff=False)
        finally:
            self._suspended = False
        self._detach()
        self._fill_receipt(aborted=True)
        self._end(f"slot {self.slot}", aborted=True)
        return self.receipt

    def _fill_receipt(self, aborted: bool) -> None:
        self.receipt.completed_at = self._cluster.clock.now()
        self.receipt.aborted = aborted
        self.receipt.keys_moved = sorted(
            key.decode("utf-8", "replace") for key in self._moved)
        self.receipt.bytes_moved = self._bytes_moved
        self.receipt.recopied = self._recopied
        self.receipt.residual_in_source_aof = self._source_aof_residual()

    def _end(self, detail: str, aborted: bool) -> None:
        for node in (self._source_node, self._target_node):
            node.taps.ended(self.slot, detail, aborted)

    # -- storage primitives ------------------------------------------------

    def _slot_keys(self, node) -> List[bytes]:
        return sorted(key for key in node.store.live_keys(0)
                      if slot_for_key(key) == self.slot)

    def _sync_pair(self) -> None:
        """Source and target act in lockstep during a transfer."""
        now = max(self._source_node.clock.now(),
                  self._target_node.clock.now())
        self._source_node.clock.sleep_until(now)
        self._target_node.clock.sleep_until(now)

    def _charge_link(self, nbytes: int) -> None:
        """One source->target hop at the shard link's bandwidth/latency.
        Both ends are busy for the transfer."""
        channel = self._source_node.channel
        cost = channel.latency + nbytes / channel.bandwidth_bps
        self._sync_pair()
        self._source_node.clock.advance(cost)
        self._target_node.clock.advance(cost)

    def _copy(self, key: bytes, sender, receiver,
              returned: bool) -> Optional[int]:
        """Ship one key, its absolute deadline and its metadata from
        ``sender`` to ``receiver``; returns the payload bytes, or None if
        the key no longer exists on the sender."""
        payload = sender.store.execute("DUMP", key)
        if payload is None:
            return None
        deadline = sender.store.execute("PEXPIRETIME", key)
        header = sender.taps.metadata(key)
        self._charge_link(len(payload) + len(header))
        if deadline >= 0:
            # Unix ms 0 would read as "no expiry": a deadline inside the
            # epoch's first millisecond ships as 1.
            receiver.store.execute("RESTORE", key, max(deadline, 1),
                                   payload, "REPLACE", "ABSTTL")
        else:
            receiver.store.execute("RESTORE", key, 0, payload, "REPLACE")
        receiver.taps.copied(key, header, self.slot, sender.index, returned)
        return len(payload)

    def _drop(self, node, key: bytes, peer: int, handoff: bool) -> None:
        """Delete ``node``'s copy of a key that lives on at ``peer``."""
        node.taps.releasing(key, self.slot, peer, handoff)
        node.store.execute("DEL", key)

    def _detach(self) -> None:
        self._source_node.store.remove_write_listener(self._on_source_write)
        self._source_node.store.remove_deletion_listener(
            self._on_source_delete)
        self._target_node.store.remove_deletion_listener(
            self._on_target_delete)

    def _source_aof_residual(self) -> bool:
        store = self._source_node.store
        if store.aof_log is None or not self._moved:
            return False
        return bool(mentioned_keys(store.aof_log.read_all(), self._moved))
