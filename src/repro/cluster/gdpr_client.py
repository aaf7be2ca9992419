"""Cross-shard GDPR compliance: GDPR shards as nodes of the one cluster.

:func:`gdpr_shards` is a ``store_factory`` for
:func:`~repro.cluster.client.build_cluster`: every shard it builds is a
:class:`~repro.gdpr.store.GDPRStore` over its own engine (Redis-like by
default, any engine through ``kv_factory``, tiered with ``tiering``)
with its *own* hash-chained audit log and AOF -- compliance evidence
stays local to the shard that served the interaction, as it would
across real machines -- while one shared
:class:`~repro.crypto.keystore.KeyStore` holds the per-subject data
keys, so a single crypto-erasure voids a subject's ciphertexts on
**every** shard at once (Art. 17's "including all its replicas and
backups", extended across the cluster).

A :class:`GDPRClient` is a thin client over the
:class:`~repro.cluster.client.ClusterClient`: it encodes the GDPR
commands of :mod:`repro.gdpr.node` and decodes their replies.  A
record's put, get and delete route by key like any keyed command
(``MOVED``, ``ASK`` and ``CROSSSLOT`` apply, and only primaries serve
them); the subject rights are the functions of :mod:`repro.gdpr.rights`,
called on the client itself: each right is one broadcast round trip in
which every shard runs the right's per-store body, and the client merges
their parts exactly as a single store's one part is merged.  Topology
operations -- replication, ``add_shard``, ``rebalance``, slot migration,
``recover_shard``, the autoscaler -- are the cluster's own
(``client.cluster``); a migration moves GDPR records, their metadata
and audit evidence through the nodes' migration taps.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional, Tuple

from ..common.clock import Clock
from ..crypto.keystore import KeyStore
from ..device.append_log import AppendLog
from ..engine.base import StorageEngine
from ..gdpr.access_control import Principal
from ..gdpr.audit import AuditDurability
from ..gdpr.metadata import GDPRMetadata, Record, pack_envelope, \
    unpack_envelope
from ..gdpr.node import RIGHT_COMMANDS, encode_principal, raise_reply
from ..gdpr.store import CONTROLLER, GDPRConfig, GDPRStore
from ..kvstore.store import KeyValueStore, StoreConfig
from ..tiering import TieredEngine, TieringConfig
from .client import ClusterClient

KVFactory = Callable[[int, Clock], StorageEngine]


def gdpr_shards(keystore: Optional[KeyStore] = None,
                kv_factory: Optional[KVFactory] = None,
                fast_gdpr: bool = False,
                tiering: Optional[TieringConfig] = None
                ) -> Callable[[int, Clock], GDPRStore]:
    """A ``build_cluster`` store factory whose shards are GDPR stores
    sharing one keystore (a fresh one unless given).

    Shard ``index``'s GDPR layer is node ``shard-<index>``, strict
    unless ``fast_gdpr`` (write-behind maintenance and a BATCH audit
    log); ``kv_factory(index, clock)`` builds its engine
    (default: an AOF-logged Redis-like store that also logs reads).
    With ``tiering`` every engine is wrapped in a
    :class:`~repro.tiering.TieredEngine` over the shard's own cold
    device.  A recovered shard (``recover_shard``) is not built here: it
    reopens the crashed store over its devices.
    """
    keystore = keystore if keystore is not None else KeyStore()
    if kv_factory is None:
        def kv_factory(index: int, clock: Clock) -> StorageEngine:
            return KeyValueStore(
                StoreConfig(appendonly=True, aof_log_reads=True),
                clock=clock)

    def build(index: int, clock: Clock) -> GDPRStore:
        kv = kv_factory(index, clock)
        if tiering is not None \
                and not getattr(kv, "supports_tiering", False):
            kv = TieredEngine(kv, device=AppendLog(
                clock=clock, name=f"shard-{index}.cold"), tiering=tiering)
        return GDPRStore(kv=kv, config=GDPRConfig(
            node_id=f"shard-{index}", fast_gdpr=fast_gdpr,
            audit_durability=(AuditDurability.BATCH if fast_gdpr
                              else AuditDurability.SYNC)),
            keystore=keystore)

    return build


class GDPRClient:
    """The GDPR data path and subject-rights target over a cluster of
    GDPR shards (see the module docstring)."""

    def __init__(self, cluster: ClusterClient) -> None:
        self.cluster = cluster

    # -- what the rights and the callers read ------------------------------

    @property
    def clock(self):
        return self.cluster.clock

    @property
    def shards(self) -> List[GDPRStore]:
        """Every node's GDPR layer, in shard order (introspection)."""
        return [node.gdpr for node in self.cluster.nodes]

    @property
    def num_shards(self) -> int:
        return len(self.cluster.nodes)

    @property
    def keystore(self) -> KeyStore:
        """The keystore the shards share."""
        return self.cluster.nodes[0].gdpr.keystore

    def shard_for(self, key: str) -> int:
        return self.cluster.shard_for(key)

    def _call(self, *args) -> object:
        return raise_reply(self.cluster.call(*args, raise_errors=False))

    # -- data path (slot-routed) -------------------------------------------

    def put(self, key: str, value: bytes, metadata: GDPRMetadata,
            principal: Principal = CONTROLLER,
            purpose: Optional[str] = None) -> None:
        self._call("GDPR.PUT", key, pack_envelope(metadata, value),
                   encode_principal(principal), purpose or "")

    def get(self, key: str, principal: Principal = CONTROLLER,
            purpose: Optional[str] = None) -> Record:
        metadata, value = unpack_envelope(self._call(
            "GDPR.GET", key, encode_principal(principal), purpose or ""))
        return Record(key=key, value=value, metadata=metadata)

    def delete(self, key: str, principal: Principal = CONTROLLER) -> bool:
        return bool(self._call("GDPR.DEL", key,
                               encode_principal(principal)))

    # -- subject-wide (one broadcast round trip) ----------------------------

    def _keys_by_shard(self, subject: str) -> List[List[bytes]]:
        return self._call("GDPR.SUBJECT", subject)

    def keys_of_subject(self, subject: str) -> List[str]:
        # A set union: mid-migration the source and the importing
        # target both index the same key.
        return sorted({key.decode("utf-8")
                       for keys in self._keys_by_shard(subject)
                       for key in keys})

    def shards_of_subject(self, subject: str) -> List[int]:
        """Shard indexes currently holding records of ``subject``."""
        return [shard for shard, keys
                in enumerate(self._keys_by_shard(subject)) if keys]

    def process_for_purpose(self, purpose: str,
                            principal: Principal = CONTROLLER
                            ) -> List[Record]:
        records = []
        for reply in self._call("GDPR.PURPOSE", purpose,
                                encode_principal(principal)):
            for key, envelope in zip(reply[::2], reply[1::2]):
                metadata, value = unpack_envelope(envelope)
                records.append(Record(key=key.decode("utf-8"), value=value,
                                      metadata=metadata))
        return records

    def subject_parts(self, body, subject: str, principal: Principal,
                      arg=None) -> List[Tuple[int, dict]]:
        """Run a right's per-store ``body`` on every shard (its command
        in :data:`~repro.gdpr.node.RIGHT_COMMANDS`); ``(shard, part)``
        for every shard holding ``subject``."""
        replies = self._call(RIGHT_COMMANDS[body], subject,
                             encode_principal(principal), json.dumps(arg))
        return [(shard, json.loads(part))
                for shard, part in enumerate(replies) if part is not None]

    def live_keys_with_prefix(self, prefix: str) -> List[bytes]:
        """Every shard's live keys under ``prefix`` (introspection)."""
        return [key for node in self.cluster.nodes
                for key in node.store.live_keys_with_prefix(prefix)]
