"""repro: reproduction of "Analyzing the Impact of GDPR on Storage Systems"
(Shah, Banakar, Shastri, Wasserman, Chidambaram -- HotStorage 2019).

The package layers:

* :mod:`repro.kvstore` -- a Redis-like key-value store (the substrate the
  paper retrofits), with AOF persistence and Redis 4.0's
  probabilistic expiry algorithm ported faithfully;
* :mod:`repro.gdpr`    -- the paper's contribution: metadata, audit
  logging, access control, encryption, residency, subject rights, and the
  compliance-spectrum assessor;
* :mod:`repro.cluster` -- hash-slot sharding, pipelined cluster clients,
  and cross-shard GDPR rights fan-out (the scaling layer);
* :mod:`repro.ycsb`    -- the benchmark workloads the paper evaluates with;
* :mod:`repro.bench`   -- one driver per table/figure in the evaluation;
* :mod:`repro.device`, :mod:`repro.net`, :mod:`repro.crypto`,
  :mod:`repro.common` -- the simulated testbed.

Quickstart::

    from repro import GDPRStore, GDPRMetadata
    store = GDPRStore()
    store.put("user:alice:profile", b"...",
              GDPRMetadata(owner="alice",
                           purposes=frozenset({"billing"}), ttl=3600))
    record = store.get("user:alice:profile", purpose="billing")
"""

from .cluster import ClusterClient, GDPRClient, build_cluster, gdpr_shards
from .common.clock import SimClock
from .gdpr import (
    CONTROLLER,
    AuditDurability,
    AuditLog,
    GDPRConfig,
    GDPRMetadata,
    GDPRStore,
    Principal,
    right_of_access,
    right_to_erasure,
    right_to_object,
    right_to_portability,
)
from .kvstore import KeyValueStore, StoreConfig

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SimClock",
    "KeyValueStore",
    "StoreConfig",
    "ClusterClient",
    "GDPRClient",
    "gdpr_shards",
    "build_cluster",
    "GDPRStore",
    "GDPRConfig",
    "GDPRMetadata",
    "Principal",
    "CONTROLLER",
    "AuditLog",
    "AuditDurability",
    "right_of_access",
    "right_to_erasure",
    "right_to_portability",
    "right_to_object",
]
