"""Per-shard replication groups: every shard gets delayed replicas.

The paper makes erasure "including all its replicas and backups" a
timeliness requirement (section 2.1), which turns replication lag into a
*compliance* property the cluster layer has to expose, not hide.
:class:`ClusterReplication` is the cluster's replica topology: one
:class:`~repro.kvstore.replication.ReplicationManager` per shard, all
with the same per-replica ``delays`` and all on the cluster's scheduler:
every replicated command is one daemon delivery event there, so replica
lag is measurable on the timeline the servers run on.  The delays are
stored once, so :meth:`~ClusterReplication.rebuild_shard` re-homes a
recovered shard's group with them.  On top sit the cluster-wide
:meth:`~ClusterReplication.erasure_horizon` (the one loop in
:func:`~repro.kvstore.replication.erasure_horizon_of`, over every
shard's group) and the slot-migration handoff hook
(:meth:`~ClusterReplication.full_sync_shard`) the migrator calls so a moved
slot arrives replicated on its destination.

Replication composes with the existing invariants rather than adding
new ones:

* **Erasure fans out through the write stream.**  A GDPR Art. 17 erasure
  (or any DEL/expiry) on a shard's primary propagates to its replicas as
  the same translated DELs replicas always apply; crypto-erasure through
  the shared keystore voids replica-held ciphertexts *immediately*, so
  the keyspace horizon measured here is the outer bound.
* **Migration hands off replica sets.**  While a slot migrates, every
  copy/cascade-delete the migrator performs on either primary enters
  that shard's write stream, so both replica sets track their primary
  mid-flight; at the ownership flip the migrator full-syncs the
  destination's replicas (draining their backlogs first -- the
  :meth:`~repro.kvstore.replication.ReplicationManager.full_sync_all`
  contract), so the moved slot is replicated on the new owner the moment
  it starts serving.
* **Stale reads are a choice, not an accident.**  ``call(...,
  prefer_replica=True)`` on the cluster client routes an eligible
  single-slot read to a replica of the owning shard;
  :meth:`~repro.kvstore.replication.ReplicationLink.touches` is how it
  reports whether the replica's in-flight backlog could make that read
  stale.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from ..common.clock import Clock
from ..common.errors import ClusterError
from ..engine.base import StorageEngine
from ..kvstore.replication import ReplicationManager, erasure_horizon_of


class ClusterReplication:
    """One :class:`ReplicationManager` per shard, plus the cluster-scope
    compliance queries.

    ``clock`` is the cluster-wide scheduler (a
    :class:`~repro.cluster.client.ClusterClient`'s); every group's
    delivery events run on it, and :meth:`erasure_horizon` advances it
    until the keys are gone everywhere.  ``shards`` lists
    ``(index, primary)`` pairs; every group gets one replica per entry
    of ``delays``.
    """

    def __init__(self, clock: Clock,
                 shards: Iterable[Tuple[int, StorageEngine]] = (),
                 delays: Sequence[float] = (0.001,)) -> None:
        if not delays:
            raise ClusterError("a replication group needs at least one "
                               "replica delay")
        self.clock = clock
        self.delays = tuple(delays)
        self.groups: Dict[int, ReplicationManager] = {}
        for index, primary in shards:
            self.add_shard(index, primary)

    def add_shard(self, index: int,
                  primary: StorageEngine) -> ReplicationManager:
        """Give shard ``index`` a group with the topology's delays
        (replicas full-synced from ``primary`` at once)."""
        if index in self.groups:
            raise ClusterError(
                f"shard {index} already has a replication group")
        group = ReplicationManager(primary, clock=self.clock,
                                   name=f"shard-{index}",
                                   delays=self.delays)
        self.groups[index] = group
        return group

    def rebuild_shard(self, index: int,
                      primary: StorageEngine) -> ReplicationManager:
        """Re-home shard ``index``'s group onto a new primary (the
        crash-recovery path: the recovered shard is a fresh store, so
        the old group's write-stream subscription is dead).  The new
        replicas start from a full sync."""
        old = self.groups.pop(index, None)
        if old is None:
            raise ClusterError(
                f"shard {index} has no replication group to rebuild")
        old.close()
        return self.add_shard(index, primary)

    def full_sync_shard(self, index: int) -> int:
        """Resync every replica of shard ``index`` from its primary.

        The slot-migration handoff: called by the migrators at the
        ownership flip so the moved slot is replicated on the
        destination from the first post-flip read.  A cluster without a
        group on that shard is a no-op (replication stays optional).
        """
        group = self.groups.get(index)
        return group.full_sync_all() if group is not None else 0

    def backlog(self) -> int:
        return sum(group.backlog() for group in self.groups.values())

    def key_visible_anywhere(self, key: Union[bytes, str],
                             db_index: int = 0) -> bool:
        """Is the key readable on any primary or any replica, on any
        shard?  (Keyspace visibility only: a crypto-erased ciphertext
        still counts until its DEL lands, which is exactly the paper's
        point about replicas.)"""
        if isinstance(key, str):
            key = key.encode("utf-8")
        return any(group.key_visible_anywhere(key, db_index)
                   for group in self.groups.values())

    def erasure_horizon(self, keys: Iterable[Union[bytes, str]],
                        step: float = 1e-3, max_wait: float = 60.0,
                        db_index: int = 0) -> Optional[float]:
        """Cluster-wide erasure horizon of a key set (one key, or a data
        subject's keys across shards): simulated seconds until the last
        copy of the last key is gone from every primary and replica of
        every shard, in-flight commands included.  Call immediately
        after deleting them; None if ``max_wait`` elapses first."""
        return erasure_horizon_of(self.clock, list(self.groups.values()),
                                  keys, step=step, max_wait=max_wait,
                                  db_index=db_index)

    def close(self) -> None:
        for group in self.groups.values():
            group.close()
