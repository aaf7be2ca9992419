"""Cross-shard GDPR compliance: N GDPR shards behind one slot router.

A :class:`ShardedGDPRStore` partitions the keyspace over N independent
:class:`~repro.gdpr.store.GDPRStore` shards by hash slot.  Each shard keeps
its *own* hash-chained audit log and its own AOF -- compliance evidence
stays local to the shard that served the interaction, as it would across
real machines -- while one shared :class:`~repro.crypto.keystore.KeyStore`
holds the per-subject data keys, so a single crypto-erasure voids a
subject's ciphertexts on **every** shard at once (Art. 17's "including all
its replicas and backups", extended across the cluster).

Subject rights (Art. 15 access, Art. 17 erasure, Art. 20 portability,
Art. 21 objection) are the functions of :mod:`repro.gdpr.rights`, called
on the sharded store itself: :meth:`ShardedGDPRStore.holders` names the
shards holding a subject (one lookup per shard) and the rights fan out
over them, exactly as they do over a single store's one holder.

Cross-shard invariants:

* **Slot-routed data path.**  Every record lives on the shard owning its
  key's hash slot; related keys colocate via ``{hash tag}`` (the cluster
  client's CROSSSLOT rule applies one layer down, so anything written
  here is also servable from the RESP cluster without rehashing).
* **Audit chains are per shard.**  Evidence never crosses machines:
  rights fan-out appends to each holding shard's own chain, and a slot
  migration appends ``migrate-in``/``migrate-out`` records to *both*
  chains -- :meth:`verify_audit_chains` must pass on every shard
  independently after any topology change.
* **Erasure fans out to every copy.**  ``right_to_erasure(store, ...)``
  touches the shards whose indexes know the subject -- during a live
  migration that includes the importing target's shadow copies -- and
  one shared-keystore crypto-erasure voids ciphertexts everywhere,
  including bytes a source AOF still holds from before the handoff.
* **Migration moves metadata with data.**  :meth:`migrate_slot` (or the
  steppable :meth:`begin_slot_migration`) ships sealed envelopes plus
  their GDPR metadata and flips slot ownership atomically; mid-flight,
  routing follows the source until the flip, except for keys the source
  no longer holds (newly created ones), which are born on the target.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..common.clock import Clock, SimClock
from ..common.errors import ClusterError
from ..crypto.keystore import KeyStore
from ..gdpr.access_control import Principal
from ..gdpr.metadata import GDPRMetadata, Record
from ..device.append_log import AppendLog
from ..engine.base import StorageEngine
from ..gdpr.store import CONTROLLER, GDPRConfig, GDPRStore, Holders
from ..kvstore.store import KeyValueStore, StoreConfig
from ..tiering import TieredEngine, TieringConfig
from .migration import GDPRSlotMigrator, MigrationReceipt
from .replication import ClusterReplication
from .slots import SlotMap, slot_for_key

GDPRConfigFactory = Callable[[int], GDPRConfig]
# ``kv_factory`` may build *any* storage engine -- the Redis-like
# default below, or ``repro.sqlstore.RelationalStore`` for the paper's
# relational comparison; every shard facility (rights fan-out, slot
# migration, replication groups, AOF/WAL recovery) runs on the engine
# interface.
KVFactory = Callable[[int, Clock], StorageEngine]


class ShardedGDPRStore:
    """N GDPR-compliant shards behind one hash-slot router."""

    def __init__(self, num_shards: int = 4,
                 clock: Optional[Clock] = None,
                 keystore: Optional[KeyStore] = None,
                 slot_map: Optional[SlotMap] = None,
                 config_factory: Optional[GDPRConfigFactory] = None,
                 kv_factory: Optional[KVFactory] = None,
                 fast_gdpr: bool = False,
                 tiering: Optional[TieringConfig] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.keystore = keystore if keystore is not None else KeyStore()
        self.slots = slot_map if slot_map is not None \
            else SlotMap.even(num_shards)
        if self.slots.num_shards > num_shards:
            raise ClusterError(
                f"slot map references shard {self.slots.num_shards - 1} "
                f"but only {num_shards} shards exist")
        if config_factory is None:
            def config_factory(index: int) -> GDPRConfig:
                return GDPRConfig(node_id=f"shard-{index}",
                                  fast_gdpr=fast_gdpr)
        if kv_factory is None:
            def kv_factory(index: int, kv_clock: Clock) -> StorageEngine:
                return KeyValueStore(
                    StoreConfig(appendonly=True, aof_log_reads=True),
                    clock=kv_clock)
        self._config_factory = config_factory
        self._kv_factory = kv_factory
        # When a tiering config is supplied, every shard's engine is
        # wrapped in a TieredEngine over its own cold device; the shared
        # keystore is attached by each shard's GDPRStore, so one
        # crypto-erasure voids archived ciphertexts on every shard.
        self.tiering = tiering
        self.shards: List[GDPRStore] = [
            GDPRStore(kv=self._build_engine(index),
                      config=config_factory(index),
                      keystore=self.keystore)
            for index in range(num_shards)]
        self.replication: Optional[ClusterReplication] = None
        self._tenant_policies = None

    def attach_tenant_policies(self, resolver) -> None:
        """Fan a per-tenant policy resolver out to every shard (and to
        shards added or recovered later)."""
        self._tenant_policies = resolver
        for shard in self.shards:
            shard.attach_tenant_policies(resolver)

    def _build_engine(self, index: int,
                      cold_device: Optional[AppendLog] = None
                      ) -> StorageEngine:
        kv = self._kv_factory(index, self.clock)
        if self.tiering is not None \
                and not getattr(kv, "supports_tiering", False):
            if cold_device is None:
                cold_device = AppendLog(clock=self.clock,
                                        name=f"shard-{index}.cold")
            kv = TieredEngine(kv, device=cold_device, tiering=self.tiering)
        return kv

    # -- routing -----------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, key: str) -> int:
        """The shard serving ``key`` right now.

        Stable slots route to their owner.  A migrating slot routes to
        the (still-authoritative) source while it holds the key; a key
        the source does not hold -- newly created mid-migration, or
        already handed off -- lives on the importing target.  This is the
        in-process analogue of the RESP layer's ASK redirect.
        """
        slot = slot_for_key(key)
        owner = self.slots.shard_of_slot(slot)
        state = self.slots.migration_of(slot)
        if state is None:
            return owner
        if key in self.shards[state.source].index:
            return state.source
        return state.target

    def shard_of(self, key: str) -> GDPRStore:
        return self.shards[self.shard_for(key)]

    def holders(self, subject: str) -> Holders:
        """``(shard, store, keys)`` for every shard holding ``subject``'s
        records, from one lookup per shard -- the fan-out list every
        right in :mod:`repro.gdpr.rights` runs over.  Mid-migration the
        source and the importing target may both list a key."""
        return [(index, shard, keys)
                for index, shard in enumerate(self.shards)
                if (keys := shard.keys_of_subject(subject))]

    def shards_of_subject(self, subject: str) -> List[int]:
        """Shard indexes currently holding records of ``subject``."""
        return [index for index, _, _ in self.holders(subject)]

    # -- data path (slot-routed) -------------------------------------------

    def put(self, key: str, value: bytes, metadata: GDPRMetadata,
            principal: Principal = CONTROLLER,
            purpose: Optional[str] = None) -> None:
        self.shard_of(key).put(key, value, metadata,
                               principal=principal, purpose=purpose)

    def get(self, key: str, principal: Principal = CONTROLLER,
            purpose: Optional[str] = None) -> Record:
        return self.shard_of(key).get(key, principal=principal,
                                      purpose=purpose)

    def delete(self, key: str, principal: Principal = CONTROLLER) -> bool:
        return self.shard_of(key).delete(key, principal=principal)

    def keys_of_subject(self, subject: str) -> List[str]:
        # A set union, not a concatenation: during a live migration the
        # source and the importing target both index the same key.
        keys = set()
        for shard in self.shards:
            keys.update(shard.keys_of_subject(subject))
        return sorted(keys)

    def subject_exists(self, subject: str) -> bool:
        return any(shard.subject_exists(subject) for shard in self.shards)

    def process_for_purpose(self, purpose: str,
                            principal: Principal = CONTROLLER
                            ) -> List[Record]:
        records: List[Record] = []
        for shard in self.shards:
            records.extend(shard.process_for_purpose(purpose,
                                                     principal=principal))
        return records

    # -- replication -------------------------------------------------------

    def attach_replication(self, delays: Sequence[float] = (0.001,)
                           ) -> ClusterReplication:
        """Give every shard a replication group of one replica per entry
        of ``delays`` (its one-way delay in seconds).  Every replicated
        command is one daemon delivery event on the store's clock, so
        replication progresses with the event timeline.
        ``store.replication.erasure_horizon(keys)`` then measures when
        the last copy of deleted keys is gone.

        Once attached, slot migrations hand replica sets off too: the
        migrator full-syncs the destination's replicas at the ownership
        flip, and mid-migration cascade deletes reach both copies'
        replicas through the per-shard write streams.
        """
        if self.replication is not None:
            raise ClusterError("replication is already attached")
        self.replication = ClusterReplication(
            self.clock,
            [(index, shard.kv) for index, shard in enumerate(self.shards)],
            delays=delays)
        return self.replication

    # -- resharding --------------------------------------------------------

    def begin_slot_migration(self, slot: int,
                             target: int) -> GDPRSlotMigrator:
        """Start a live migration of ``slot`` to ``target`` and return
        the steppable migrator.  Traffic (including subject rights) keeps
        flowing while the caller interleaves ``step()`` calls; ``finish``
        flips ownership atomically."""
        return GDPRSlotMigrator(self, slot, target)

    def migrate_slot(self, slot: int, target: int,
                     batch_size: int = 16) -> MigrationReceipt:
        """Move ``slot``'s records -- values, ciphertexts, GDPR metadata,
        and audit evidence of the handoff -- to ``target`` in one call."""
        return self.begin_slot_migration(slot, target).run(batch_size)

    def rebalance_plan(self, target: int) -> List[int]:
        """The slots an even rebalance hands ``target``: a 1/num_shards
        share of every other shard's populated slots."""
        plan: List[int] = []
        for index, shard in enumerate(self.shards):
            if index == target:
                continue
            populated = sorted({slot_for_key(key)
                                for key in shard.index.keys()})
            if not populated:
                continue
            share = max(1, len(populated) // self.num_shards)
            plan.extend(populated[:share])
        return plan

    def rebalance(self, target: int,
                  slots: Optional[List[int]] = None,
                  batch_size: int = 16,
                  concurrency: int = 4,
                  step_interval: float = 1e-4,
                  drive: bool = True) -> List[MigrationReceipt]:
        """Migrate many slots to ``target`` as *interleaved event streams*.

        Up to ``concurrency`` :class:`GDPRSlotMigrator`\\ s run at once,
        each stepping from its own scheduled events (so no slot
        monopolizes the timeline, and live traffic -- subject rights
        included -- keeps flowing between steps); as each slot's ownership
        flips, the next queued slot starts.  With ``drive=True`` the
        call runs the clock's event loop until every migration finished
        and returns the receipts in completion order; with
        ``drive=False`` the streams are scheduled and the caller drives
        the clock itself (interleaving its own foreground work), reading
        receipts off the returned list as they complete.
        """
        clock = self.clock
        if not hasattr(clock, "schedule_after"):
            raise ClusterError(
                "rebalance needs a scheduling clock (SimClock)")
        if not 0 <= target < self.num_shards:
            raise ClusterError(f"target shard {target} does not exist")
        if slots is None:
            slots = self.rebalance_plan(target)
        queue: List[int] = []
        seen = set()
        for slot in slots:
            if slot in seen:
                continue
            seen.add(slot)
            if self.slots.shard_of_slot(slot) != target:
                queue.append(slot)
        receipts: List[MigrationReceipt] = []
        total = len(queue)
        state = {"active": 0}

        def finish_one(receipt: MigrationReceipt) -> None:
            state["active"] -= 1
            receipts.append(receipt)
            launch()

        def launch() -> None:
            while queue and state["active"] < concurrency:
                slot = queue.pop(0)
                migrator = self.begin_slot_migration(slot, target)
                state["active"] += 1
                migrator.run_as_events(clock, batch_size=batch_size,
                                       interval=step_interval,
                                       on_done=finish_one)

        launch()
        if drive:
            while len(receipts) < total:
                # Guard on live events, not run_next() truthiness: a
                # recurring daemon (a server cron sharing this clock)
                # keeps the heap non-empty forever.
                if clock.pending_live_events() == 0:
                    raise ClusterError(
                        "rebalance stalled: migration events exhausted "
                        f"with {total - len(receipts)} slots unfinished")
                clock.run_next()
        return receipts

    def add_shard(self) -> int:
        """Bring one empty shard online (scale-out) and return its index.

        The new shard owns no slots until a :meth:`rebalance` (or
        explicit migrations) hands it some, so adding one is cheap and
        safe under live traffic.  Built through the same factories as
        the original shards, so configuration, engine choice, and
        tiering carry over.  With replication attached the new shard
        starts *unreplicated* -- replicating it is a deployment decision,
        made with ``store.replication.add_shard(index, shard.kv)``.
        """
        index = self.slots.add_shard()
        if index < len(self.shards):
            # A pre-built spare (a store constructed with more shards
            # than the slot map routes to) just comes into rotation.
            return index
        if index != len(self.shards):
            raise ClusterError(
                f"slot map grew to shard {index} but the store holds "
                f"{len(self.shards)} shards; topologies diverged")
        shard = GDPRStore(kv=self._build_engine(index),
                          config=self._config_factory(index),
                          keystore=self.keystore)
        if self._tenant_policies is not None:
            shard.attach_tenant_policies(self._tenant_policies)
        self.shards.append(shard)
        return index

    def attach_autoscaler(self, signals,
                          config=None,
                          scale_out=None,
                          start: bool = True):
        """Close the autoscaling loop over this store: watch per-shard
        queueing-delay signals and, when a hot shard has no worker
        headroom left, **add a shard and rebalance into it live**.

        ``signals`` is one saturation source per watched shard: either
        an object already exposing ``queueing_delay_ewma()`` (the RESP
        layer's :class:`~repro.cluster.workers.WorkerPool` fronting the
        same shard) or a bare callable returning the EWMA, which is
        wrapped in a :class:`~repro.cluster.autoscale.SignalProbe`.

        The default ``scale_out`` action is :meth:`add_shard` followed
        by :meth:`rebalance(..., drive=False) <rebalance>`, so the slot
        migrations run as interleaved events *while traffic -- subject
        rights included -- keeps flowing*; erasure guarantees mid-scale-
        out are exactly the live-migration guarantees the migrator
        already enforces.  Returns the started
        :class:`~repro.cluster.autoscale.Autoscaler`.
        """
        from .autoscale import Autoscaler, SignalProbe
        if not hasattr(self.clock, "schedule_after"):
            raise ClusterError(
                "attach_autoscaler needs a scheduling clock (SimClock)")
        targets = [signal if hasattr(signal, "queueing_delay_ewma")
                   else SignalProbe(signal) for signal in signals]
        if scale_out is None:
            def scale_out(autoscaler, shard_index: int) -> str:
                target = self.add_shard()
                self.rebalance(target, drive=False)
                return f"shard-add -> {target}"
        scaler = Autoscaler(self.clock, targets, config=config,
                            scale_out=scale_out)
        if start:
            scaler.start()
        return scaler

    # -- maintenance & evidence --------------------------------------------

    def tick(self) -> None:
        for shard in self.shards:
            shard.tick()

    def flush_compliance(self) -> None:
        """Close every shard's fast-GDPR visibility window (write-behind
        drain + audit block seal); a no-op for strict-mode shards."""
        for shard in self.shards:
            shard.flush_compliance()

    def verify_audit_chains(self) -> Dict[int, int]:
        """Verify every shard's hash chain -- per-record or block-sealed,
        whichever that shard runs -- as {shard: records verified}.
        Raises :class:`~repro.common.errors.AuditError` on any break."""
        return {index: shard.audit.verify()
                for index, shard in enumerate(self.shards)}

    def erasure_report(self) -> Dict[str, float]:
        """Cluster-wide roll-up of the per-shard erasure timeliness."""
        reports = [shard.erasure_report() for shard in self.shards]
        merged = {
            "events": sum(r["events"] for r in reports),
            "with_deadline": sum(r["with_deadline"] for r in reports),
            "max_lateness": max(r["max_lateness"] for r in reports),
            "sla_breaches": sum(r["sla_breaches"] for r in reports),
        }
        weighted = sum(r["mean_lateness"] * r["with_deadline"]
                       for r in reports)
        merged["mean_lateness"] = (weighted / merged["with_deadline"]
                                   if merged["with_deadline"] else 0.0)
        return merged

    def recover_shard(self, index: int,
                      aof_bytes: Optional[bytes] = None) -> int:
        """Rebuild one crashed shard from its durable AOF.

        Replays the shard's surviving AOF into a fresh store, re-derives
        the GDPR indexes from decryptable envelopes (crypto-erased records
        stay unreachable), and swaps the shard in.  Other shards are not
        touched.  Returns the number of commands replayed.
        """
        old = self.shards[index]
        if aof_bytes is None:
            if old.kv.aof_log is None:
                raise ValueError(f"shard {index} has no AOF to recover")
            aof_bytes = old.kv.aof_log.read_all()
        # Rebuild through the same factory that made the shard, so the
        # replacement keeps its configuration and device-latency model.
        # A tiered shard keeps its cold device: the archive's durable
        # bytes (segments, tombstones, erasure markers) survive the
        # crash and are re-indexed by the fresh TieredEngine.
        old_cold = getattr(old.kv, "cold", None)
        kv = self._build_engine(
            index, cold_device=old_cold.device if old_cold else None)
        replayed = kv.replay_aof(aof_bytes)
        if kv.aof_log is not None:
            # Seed the replacement AOF with the recovered state so the
            # shard is immediately durable again.
            kv.rewrite_aof()
        shard = GDPRStore(kv=kv, config=self._config_factory(index),
                          keystore=self.keystore)
        if self._tenant_policies is not None:
            shard.attach_tenant_policies(self._tenant_policies)
        shard.rebuild_indexes()
        self.shards[index] = shard
        if self.replication is not None \
                and index in self.replication.groups:
            # The old group subscribed to the crashed store's write
            # stream; re-home it (the topology's delays) onto
            # the recovered primary and full-sync the replicas.
            self.replication.rebuild_shard(index, kv)
        return replayed
