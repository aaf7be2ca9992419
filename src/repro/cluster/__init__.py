"""Hash-slot sharded cluster layer: routing, pipelining, live resharding.

The scaling seam the ROADMAP calls for: CRC16 -> 16384 hash slots ->
N shards (:mod:`repro.cluster.slots`), a pipelining, redirect-following
:class:`ClusterClient` over the simulated network
(:mod:`repro.cluster.client`) that also owns the topology operations
(``add_shard``, ``rebalance``, ``recover_shard``, the autoscaler's
scale-out), **live slot migration** that moves data -- not just routing
-- between shards behind MOVED/ASK redirects
(:mod:`repro.cluster.migration`), GDPR shards served as nodes of that
same cluster, with a thin :class:`GDPRClient` whose subject rights run
on every shard under one shared-keystore crypto-erasure
(:mod:`repro.cluster.gdpr_client`), **per-shard replication
groups** with a cluster-wide erasure horizon and replica-set handoff at
slot migration (:mod:`repro.cluster.replication`), **multi-core shard
execution** -- every shard is an event-driven server behind K >= 1
simulated cores, with adaptive batching (:mod:`repro.cluster.workers`)
-- and a
**queueing-delay autoscaler** that raises worker counts and triggers
live shard-adds under load (:mod:`repro.cluster.autoscale`).

Layer-wide invariants (each module's docstring details its own):

* every key maps to exactly one of :data:`NUM_SLOTS` hash slots, and
  every slot to exactly one owning shard, even mid-migration;
* multi-key commands are CROSSSLOT-checked at both the client and the
  shard (colocate with ``{hash tag}``);
* audit chains, AOFs, and erasure events are per shard -- compliance
  evidence stays on the machine that served the interaction;
* Art. 17 erasure reaches every copy a subject has, on every shard,
  including mid-migration shadow copies, and one shared-keystore
  crypto-erasure voids all ciphertexts at once;
* replication lag is a *compliance* property: shards may carry delayed
  replicas, erasure fans out to them through the per-shard write
  streams, and the cluster-wide ``erasure_horizon`` reports when a
  deleted key left the last copy (in-flight commands included).
"""

from .client import (
    ClusterClient,
    ClusterNode,
    ClusterStoreServer,
    Pipeline,
    build_cluster,
    parse_redirect,
)
from .autoscale import (
    Autoscaler,
    AutoscaleConfig,
    AutoscaleEvent,
)
from .gdpr_client import GDPRClient, gdpr_shards
from .migration import MigrationReceipt, SlotMigrator
from .replication import ClusterReplication
from .slots import (
    MigrationState,
    NUM_SLOTS,
    SlotMap,
    SlotPlacement,
    hash_tag,
    slot_for_key,
)
from .workers import (
    PlacementPolicy,
    RebalanceEvent,
    Rebalancer,
    WorkerPool,
    WorkerPoolConfig,
)

__all__ = [
    "NUM_SLOTS",
    "MigrationState",
    "SlotMap",
    "hash_tag",
    "slot_for_key",
    "ClusterClient",
    "ClusterNode",
    "ClusterStoreServer",
    "Pipeline",
    "build_cluster",
    "parse_redirect",
    "GDPRClient",
    "gdpr_shards",
    "MigrationReceipt",
    "SlotMigrator",
    "ClusterReplication",
    "WorkerPool",
    "WorkerPoolConfig",
    "PlacementPolicy",
    "Rebalancer",
    "RebalanceEvent",
    "SlotPlacement",
    "Autoscaler",
    "AutoscaleConfig",
    "AutoscaleEvent",
]
