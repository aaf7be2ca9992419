"""Live slot migration: move a slot's *data* between shards, safely.

PR 1's :meth:`SlotMap.assign` reshards *routing* only -- keys already
written stay stranded on the old shard.  This module adds the Redis
Cluster-style data path: a migrator walks a slot's keys on the source
shard, ships each key's value (``DUMP`` payload or sealed GDPR envelope)
to the target, and **flips slot ownership atomically at the end**, while
the slot's :class:`~repro.cluster.slots.MigrationState` makes servers
answer ``ASK``/``MOVED`` so live clients never observe a torn keyspace.

Cross-shard invariants the migrators maintain:

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
  migrating slot is ASK-redirected (cluster) or routed (GDPR store) to
  the importing target, so the source's key set only shrinks.
* **GDPR metadata travels with the ciphertext.**  The GDPR migrator ships
  the sealed envelope verbatim (the shared keystore makes it readable on
  any shard, and crypto-erasure still voids it everywhere), re-registers
  the key in the target's metadata index and location ledger, and appends
  ``migrate-in``/``migrate-out`` records to **both** shards' hash-chained
  audit logs -- the handoff itself is compliance evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

from ..common.errors import MigrationError
from ..kvstore.aof import mentioned_keys
from .client import command_keys
from .slots import SlotMap, slot_for_key

MIGRATOR_PRINCIPAL = "cluster-migrator"


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


class _SlotMigrationBase:
    """Shared migration lifecycle: scan, copy, track dirt, flip, clean up.

    Subclasses provide the storage primitives (how to scan a slot, copy
    one key, delete a handed-off or rolled-back copy) and the listener
    wiring; the base class owns the state machine:

    ``begin`` (constructor) -> any number of ``step`` calls, interleaved
    with live traffic -> ``finish`` (drain + atomic ownership flip +
    source cleanup) or ``abort`` (target cleanup, ownership unchanged).
    """

    def __init__(self, slot_map: SlotMap, slot: int, target: int) -> None:
        self.slots = slot_map
        self.state = slot_map.begin_migration(slot, target)
        self.slot = slot
        self.source = self.state.source
        self.target = target
        self._pending: List = []
        self._pending_set: Set = set()
        self._moved: Set = set()
        self._bytes_moved = 0
        self._recopied = 0
        self._done = False
        # Re-entrancy guard: listener callbacks ignore mutations the
        # migrator itself performs (RESTORE's implicit delete, handoff
        # DELs at finish, rollback DELs at abort).
        self._suspended = False
        for key in self._scan_keys():
            self._enqueue(key)
        self.receipt = MigrationReceipt(
            slot=slot, source=self.source, target=target,
            started_at=self._now())
        self._attach()

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def keys_pending(self) -> int:
        return len(self._pending)

    @property
    def keys_moved(self) -> int:
        return len(self._moved)

    def _enqueue(self, key) -> None:
        if key not in self._pending_set:
            self._pending.append(key)
            self._pending_set.add(key)

    def _note_source_write(self, key) -> None:
        """A source key in this slot changed: (re-)queue it for copy."""
        if self._suspended or self._done:
            return
        if slot_for_key(key) != self.slot:
            return
        if key in self._moved:
            self._moved.discard(key)
            self._recopied += 1
        self._enqueue(key)

    def _note_source_delete(self, key) -> None:
        """Source copy died (erasure/DEL/expiry): kill the shadow too."""
        if self._suspended or self._done or key not in self._moved:
            return
        self._moved.discard(key)
        self._suspended = True
        try:
            self._cascade_delete_target(key)
        finally:
            self._suspended = False

    def _note_target_delete(self, key) -> None:
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
            nbytes = self._copy_key(key)
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
                self._handoff_delete(key)
        finally:
            self._suspended = False
        self._detach()
        replication = self._replication()
        synced = 0
        if replication is not None:
            synced = replication.full_sync_shard(self.target)
        self._fill_receipt(aborted=False)
        self.receipt.replicas_synced = synced
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
            for key in self._scan_target_keys():
                if self._source_holds(key):
                    # A shadow copy (possibly stale: the source may have
                    # been written after the copy).  The source is
                    # authoritative -- just drop the shadow.
                    self._rollback_delete(key)
                else:
                    # Born on the target mid-migration (ASK-redirected
                    # new key).  Abandoning it would lose an
                    # acknowledged write: move it back.
                    self._move_back(key)
        finally:
            self._suspended = False
        self._detach()
        self._fill_receipt(aborted=True)
        return self.receipt

    def _fill_receipt(self, aborted: bool) -> None:
        self.receipt.completed_at = self._now()
        self.receipt.aborted = aborted
        self.receipt.keys_moved = sorted(
            self._key_name(key) for key in self._moved)
        self.receipt.bytes_moved = self._bytes_moved
        self.receipt.recopied = self._recopied
        self.receipt.residual_in_source_aof = self._source_aof_residual()

    # -- storage primitives (subclass responsibilities) --------------------

    def _scan_keys(self) -> List:
        raise NotImplementedError

    def _copy_key(self, key) -> Optional[int]:
        """Copy one key source->target; returns payload bytes shipped, or
        None if the key no longer exists on the source."""
        raise NotImplementedError

    def _cascade_delete_target(self, key) -> None:
        raise NotImplementedError

    def _handoff_delete(self, key) -> None:
        raise NotImplementedError

    def _rollback_delete(self, key) -> None:
        raise NotImplementedError

    def _scan_target_keys(self) -> List:
        """The target's keys in this slot (abort path: shadow copies to
        drop plus target-born keys to bring home)."""
        raise NotImplementedError

    def _source_holds(self, key) -> bool:
        """Does the source currently hold ``key``?  (Distinguishes a
        shadow copy from a target-born key during abort.)"""
        raise NotImplementedError

    def _move_back(self, key) -> None:
        """Return one target-born key to the source (abort path)."""
        raise NotImplementedError

    def _attach(self) -> None:
        raise NotImplementedError

    def _detach(self) -> None:
        raise NotImplementedError

    def _replication(self):
        """The cluster's :class:`ClusterReplication` registry, if one is
        attached (replication stays optional: None disables handoff)."""
        return None

    def _now(self) -> float:
        raise NotImplementedError

    def _source_aof_residual(self) -> bool:
        return False

    @staticmethod
    def _key_name(key) -> str:
        if isinstance(key, bytes):
            return key.decode("utf-8", "replace")
        return str(key)


class SlotMigrator(_SlotMigrationBase):
    """Live migration of one slot between two :class:`ClusterNode` shards.

    Keys travel as ``DUMP`` payloads restored with ``RESTORE ... REPLACE``
    (so re-copies of dirtied keys are idempotent), with TTLs carried as
    remaining milliseconds.  Each payload is charged to *both* shard
    clocks at the inter-node link's bandwidth and latency -- migration
    competes with foreground traffic for simulated time, which is exactly
    the "cost of compliance under cluster operations" the benchmarks
    measure.

    Concurrent :class:`~repro.cluster.client.ClusterClient` traffic keeps
    working throughout: the source serves keys it still holds, ASKs for
    keys that do not exist (new keys are created on the target via
    ``ASKING``), and after :meth:`finish` stale clients are MOVED to the
    new owner.
    """

    def __init__(self, cluster, slot: int, target: int) -> None:
        self._cluster = cluster
        source = cluster.slots.shard_of_slot(slot)
        if not 0 <= target < len(cluster.nodes):
            raise MigrationError(
                f"target shard {target} has no node in this cluster")
        self._source_node = cluster.nodes[source]
        self._target_node = cluster.nodes[target]
        super().__init__(cluster.slots, slot, target)

    # -- primitives --------------------------------------------------------

    def _scan_keys(self) -> List[bytes]:
        return sorted(key for key in self._source_node.store.live_keys(0)
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

    def _copy_key(self, key: bytes) -> Optional[int]:
        self._suspended = True
        try:
            source = self._source_node.store
            payload = source.execute("DUMP", key)
            if payload is None:
                return None
            pttl = source.execute("PTTL", key)
            ttl_ms = pttl if pttl > 0 else 0
            self._charge_link(len(payload))
            self._target_node.store.execute(
                "RESTORE", key, ttl_ms, payload, "REPLACE")
            return len(payload)
        finally:
            self._suspended = False

    def _cascade_delete_target(self, key: bytes) -> None:
        self._target_node.store.execute("DEL", key)

    def _handoff_delete(self, key: bytes) -> None:
        self._source_node.store.execute("DEL", key)

    def _rollback_delete(self, key: bytes) -> None:
        self._target_node.store.execute("DEL", key)

    def _scan_target_keys(self) -> List[bytes]:
        return sorted(key for key in self._target_node.store.live_keys(0)
                      if slot_for_key(key) == self.slot)

    def _source_holds(self, key: bytes) -> bool:
        return self._source_node.store.has_live_key(key, 0)

    def _move_back(self, key: bytes) -> None:
        target = self._target_node.store
        payload = target.execute("DUMP", key)
        if payload is None:
            return
        pttl = target.execute("PTTL", key)
        self._charge_link(len(payload))
        self._source_node.store.execute(
            "RESTORE", key, pttl if pttl > 0 else 0, payload, "REPLACE")
        target.execute("DEL", key)

    # -- wiring ------------------------------------------------------------

    def _attach(self) -> None:
        self._source_node.store.add_write_listener(self._on_source_write)
        self._source_node.store.add_deletion_listener(
            self._on_source_delete)
        self._target_node.store.add_deletion_listener(
            self._on_target_delete)

    def _detach(self) -> None:
        self._source_node.store.remove_write_listener(
            self._on_source_write)
        self._source_node.store.remove_deletion_listener(
            self._on_source_delete)
        self._target_node.store.remove_deletion_listener(
            self._on_target_delete)

    def _on_source_write(self, db_index: int,
                         record: List[bytes]) -> None:
        for key in command_keys(record):
            self._note_source_write(key)

    def _on_source_delete(self, db_index: int, key: bytes,
                          reason: str, when: float) -> None:
        self._note_source_delete(key)

    def _on_target_delete(self, db_index: int, key: bytes,
                          reason: str, when: float) -> None:
        self._note_target_delete(key)

    def _replication(self):
        return getattr(self._cluster, "replication", None)

    def _now(self) -> float:
        return self._cluster.clock.now()

    def _source_aof_residual(self) -> bool:
        store = self._source_node.store
        if store.aof_log is None or not self._moved:
            return False
        data = store.aof_log.read_all()
        return bool(mentioned_keys(data, self._moved))


class GDPRSlotMigrator(_SlotMigrationBase):
    """Slot migration across :class:`~repro.gdpr.store.GDPRStore` shards.

    Ships the *sealed envelope* (ciphertext) verbatim -- the cluster's
    shared keystore makes it readable on the target, and a crypto-erasure
    of the subject's key still voids every copy, including any bytes the
    source AOF retains until compaction (``residual_in_source_aof`` on the
    receipt reports exactly that, the paper's section 4.3 concern).

    Alongside each value the migrator moves the key's GDPR metadata
    (re-registered in the target's index, so subject-rights fan-out sees
    the shadow copy immediately), updates both location ledgers, and
    appends ``migrate-in`` / ``migrate-out`` / ``migrate-evict`` records
    to the per-shard hash-chained audit logs: the handoff is itself
    audited evidence on both machines.
    """

    def __init__(self, sharded_store, slot: int, target: int) -> None:
        self._store = sharded_store
        source = sharded_store.slots.shard_of_slot(slot)
        if not 0 <= target < sharded_store.num_shards:
            raise MigrationError(
                f"target shard {target} does not exist")
        self._source_shard = sharded_store.shards[source]
        self._target_shard = sharded_store.shards[target]
        super().__init__(sharded_store.slots, slot, target)
        self._audit_both("migrate-begin",
                         f"slot {slot}: shard-{self.source} -> "
                         f"shard-{self.target}")

    # -- primitives --------------------------------------------------------

    def _scan_keys(self) -> List[str]:
        return sorted(key for key in self._source_shard.index.keys()
                      if slot_for_key(key) == self.slot)

    def _copy_key(self, key: str) -> Optional[int]:
        source, target = self._source_shard, self._target_shard
        blob = source.kv.execute("GET", key)
        metadata = source.index.get_metadata(key)
        if blob is None or metadata is None:
            return None
        self._suspended = True
        try:
            target.store_record(key, blob, metadata)
            target.audit.append(
                principal=MIGRATOR_PRINCIPAL, operation="migrate-in",
                key=key, subject=target._audit_name(metadata.owner),
                outcome="ok",
                detail=f"slot {self.slot} from "
                       f"{source.config.node_id}")
        finally:
            self._suspended = False
        return len(blob)

    def _cascade_delete_target(self, key: str) -> None:
        # Let the target's own deletion listener do the GDPR bookkeeping
        # (index removal, location ledger, erasure event): from the
        # target's point of view this *is* an erasure of personal data.
        target = self._target_shard
        target.kv.execute("DEL", key)
        target.audit.append(
            principal=MIGRATOR_PRINCIPAL, operation="migrate-evict",
            key=key, outcome="ok",
            detail=f"slot {self.slot}: source copy deleted "
                   "mid-migration")

    def _handoff_delete(self, key: str) -> None:
        # A handoff is not an erasure: the record lives on, on the new
        # owner.  Deregister from the index first so the deletion listener
        # records no erasure event, then remove the bytes.
        source = self._source_shard
        metadata = source.index.remove(key)
        source.locations.record_erased(key)
        source.kv.execute("DEL", key)
        source.audit.append(
            principal=MIGRATOR_PRINCIPAL, operation="migrate-out",
            key=key,
            subject=source._audit_name(metadata.owner)
            if metadata is not None else None,
            outcome="ok",
            detail=f"slot {self.slot} to "
                   f"{self._target_shard.config.node_id}")

    def _rollback_delete(self, key: str) -> None:
        target = self._target_shard
        target.index.remove(key)
        target.locations.record_erased(key)
        target.kv.execute("DEL", key)

    def _scan_target_keys(self) -> List[str]:
        return sorted(key for key in self._target_shard.index.keys()
                      if slot_for_key(key) == self.slot)

    def _source_holds(self, key: str) -> bool:
        return key in self._source_shard.index

    def _move_back(self, key: str) -> None:
        source, target = self._source_shard, self._target_shard
        blob = target.kv.execute("GET", key)
        metadata = target.index.get_metadata(key)
        if blob is None or metadata is None:
            return
        source.store_record(key, blob, metadata)
        source.audit.append(
            principal=MIGRATOR_PRINCIPAL, operation="migrate-return",
            key=key, subject=source._audit_name(metadata.owner),
            outcome="ok",
            detail=f"slot {self.slot}: born on "
                   f"{target.config.node_id} during aborted migration")
        self._rollback_delete(key)

    # -- wiring ------------------------------------------------------------

    def _attach(self) -> None:
        self._source_shard.kv.add_write_listener(self._on_source_write)
        self._source_shard.kv.add_deletion_listener(
            self._on_source_delete)
        self._target_shard.kv.add_deletion_listener(
            self._on_target_delete)

    def _detach(self) -> None:
        self._source_shard.kv.remove_write_listener(
            self._on_source_write)
        self._source_shard.kv.remove_deletion_listener(
            self._on_source_delete)
        self._target_shard.kv.remove_deletion_listener(
            self._on_target_delete)

    def finish(self) -> MigrationReceipt:
        receipt = super().finish()
        self._audit_both("migrate-end",
                         f"slot {self.slot}: {len(receipt.keys_moved)} "
                         f"keys, {receipt.bytes_moved} bytes")
        return receipt

    def abort(self) -> MigrationReceipt:
        receipt = super().abort()
        self._audit_both("migrate-abort", f"slot {self.slot}")
        return receipt

    def _audit_both(self, operation: str, detail: str) -> None:
        for shard in (self._source_shard, self._target_shard):
            shard.audit.append(principal=MIGRATOR_PRINCIPAL,
                               operation=operation, outcome="ok",
                               detail=detail)

    def _on_source_write(self, db_index: int,
                         record: List[bytes]) -> None:
        for key in command_keys(record):
            self._note_source_write(key.decode("utf-8", "replace"))

    def _on_source_delete(self, db_index: int, key: bytes,
                          reason: str, when: float) -> None:
        self._note_source_delete(key.decode("utf-8", "replace"))

    def _on_target_delete(self, db_index: int, key: bytes,
                          reason: str, when: float) -> None:
        self._note_target_delete(key.decode("utf-8", "replace"))

    def _replication(self):
        return getattr(self._store, "replication", None)

    def _now(self) -> float:
        return self._store.clock.now()

    def _source_aof_residual(self) -> bool:
        kv = self._source_shard.kv
        if kv.aof_log is None or not self._moved:
            return False
        data = kv.aof_log.read_all()
        return bool(mentioned_keys(
            data, [key.encode("utf-8") for key in self._moved]))
