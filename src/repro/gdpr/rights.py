"""Data-subject rights (GDPR Art. 15, 17, 20, 21) over any GDPR target.

Each right is implemented as the paper's section 2.1 describes its storage
footprint:

* **Art. 15 right of access** -- a structured report of every record the
  subject owns, including purposes, recipients, retention, and use in
  automated decision-making.
* **Art. 17 right to be forgotten** -- erase all the subject's records
  "including all its replicas and backups": keyspace deletes, per-subject
  crypto-erasure, and (optionally) immediate AOF compaction so no deleted
  bytes persist in subsystems (the paper's section 4.3 concern).
* **Art. 20 right to data portability** -- export in a commonly used
  format (JSON or CSV here).
* **Art. 21 right to object** -- blacklist a purpose across all of the
  subject's records, effective for every subsequent read.

This module is the only implementation of these rights.  A *target* is a
:class:`GDPRStore` or a
:class:`~repro.cluster.sharded_store.ShardedGDPRStore`; both answer
``target.holders(subject)`` with ``(shard, store, keys)`` for every store
holding the subject's records (a single store is shard 0), from one owner
lookup per store, and each right fans out over that list.  A tenant view
(:class:`~repro.tenancy.TenantStore`) calls these functions on its base
with the tenant-qualified subject.  The invariants the fan-out keeps:

* **Audit evidence is local.**  Each right appends one record to each
  holding store's own hash-chained audit log, never a cross-shard record
  (chains verify per shard).
* **Migration shadows count once.**  During a live slot migration the
  source and the importing target both hold a key; Art. 15/20 keep the
  row of the shard ``target.shard_for(key)`` routes to, and Art. 21
  counts the record once.
* **Erasure reaches every copy.**  Art. 17 erases every holder's keys.
  The migration layer cascades a source delete to the target's shadow, so
  each holder's keys are re-checked against its index when its turn
  comes, a holder left empty records nothing, and ``shards_touched``
  names only shards that recorded an erasure.  Crypto-erasure voids the
  subject's ciphertexts globally (one shared keystore) even where AOF
  bytes linger.
* **One lookup, one ``DEL`` per store.**  Art. 17 deletes a holder's keys
  with one engine-internal ``DEL k1 ... kn``: one command charge, one log
  record and one replicated event per store.  CROSSSLOT is a
  client-routing rule and never applies to the store's own deletes (Redis
  applies its internal deletes the same way), so a subject's records may
  span arbitrarily many slots and shards.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..common.errors import UnknownSubjectError
from ..kvstore.aof import mentioned_keys
from .access_control import Operation, Principal
from .store import CONTROLLER, GDPRStore, Holders


@dataclass
class AccessReport:
    """Art. 15 response."""

    subject: str
    generated_at: float
    records: List[dict] = field(default_factory=list)
    purposes: List[str] = field(default_factory=list)
    recipients: List[str] = field(default_factory=list)
    automated_decision_keys: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2)


@dataclass
class ErasureReceipt:
    """Art. 17 response: proof of what was erased, how fast, how deeply."""

    subject: str
    requested_at: float
    completed_at: float
    keys_erased: List[str] = field(default_factory=list)
    crypto_erased: bool = False
    log_compacted: bool = False
    residual_in_aof: bool = False   # deleted keys still visible in an AOF?
    #: Cold segments the erasure reached (tiered stores only): every
    #: archived ciphertext of the subject is void without a rewrite.
    cold_segments_voided: int = 0
    #: Shards that recorded an erasure (a single store is shard 0).
    shards_touched: List[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.completed_at - self.requested_at


def _holders(target, subject: str) -> Holders:
    holders = target.holders(subject)
    if not holders:
        raise UnknownSubjectError(f"no records for data subject {subject!r}")
    return holders


def _keep(rows: Dict[str, dict], target, shard: int, row: dict) -> None:
    """Keep ``row`` unless another holder's copy of its key is the one
    routing serves (only a live migration reports a key twice, so a
    single store never reaches ``shard_for``)."""
    key = row["key"]
    if key not in rows or shard == target.shard_for(key):
        rows[key] = row


def right_of_access(target, subject: str,
                    principal: Optional[Principal] = None) -> AccessReport:
    """Art. 15: everything we hold about ``subject`` and how it is used."""
    if principal is None:
        principal = Principal.subject(subject)
    holders = _holders(target, subject)
    started = target.clock.now()
    report = AccessReport(subject=subject, generated_at=started)
    rows: Dict[str, dict] = {}
    purposes = set()
    recipients = set()
    decision_keys = set()
    for shard, store, keys in holders:
        tiered = getattr(store.kv, "supports_tiering", False)
        cold_keys = set()
        if tiered:
            # Which of the subject's records live in the archive right
            # now?  Answered from the per-subject segment blooms --
            # captured before the reads below promote them.
            cold_keys = {k.decode("utf-8", "replace")
                         for k in store.kv.cold_keys_of_subject(subject)}
        for key in keys:
            record = store.get(key, principal=principal)
            meta = record.metadata
            purposes.update(meta.purposes)
            recipients.update(meta.shared_with)
            if meta.decision_making:
                decision_keys.add(key)
            row = {
                "key": key,
                "purposes": sorted(meta.purposes),
                "objections": sorted(meta.objections),
                "recipients": sorted(meta.shared_with),
                "origin": meta.origin,
                "retention_seconds": meta.ttl,
                "stored_in": store.locations.locations_of(key),
                "value_bytes": len(record.value),
            }
            if tiered:
                row["tier"] = "cold" if key in cold_keys else "hot"
            _keep(rows, target, shard, row)
        report.elapsed = store.clock.now() - started
        store.audit.append(principal=principal.name, operation="access-report",
                           subject=store._audit_name(subject), outcome="ok",
                           detail=f"{len(keys)} records")
    report.records = sorted(rows.values(), key=lambda row: row["key"])
    report.purposes = sorted(purposes)
    report.recipients = sorted(recipients)
    report.automated_decision_keys = sorted(decision_keys)
    return report


def right_to_erasure(target, subject: str,
                     principal: Optional[Principal] = None,
                     compact_log: Optional[bool] = None) -> ErasureReceipt:
    """Art. 17: erase the subject everywhere, without undue delay.

    Erasure depth is three layers, on every holding store:

    1. one keyspace DEL of every key (immediate inaccessibility),
    2. crypto-erasure of the subject's data key (voids AOF history,
       snapshots, and backups even where ciphertext bytes linger),
    3. optional AOF compaction so not even ciphertext persists
       (``compact_log`` defaults to each store's ``compact_on_erasure``).
    """
    if principal is None:
        principal = Principal.subject(subject)
    holders = _holders(target, subject)
    requested_at = target.clock.now()
    receipt = ErasureReceipt(subject=subject, requested_at=requested_at,
                             completed_at=requested_at)
    erased = set()
    for shard, store, keys in holders:
        # An earlier holder's DEL may have cascaded here (erasing a
        # migrating slot's source evicts the target's shadow copies).
        keys = [key for key in keys if key in store.index]
        if not keys:
            continue
        store.access.check(principal, Operation.DELETE,
                           store.index.get_metadata(keys[0]), None,
                           store.clock.now())
        store.kv.execute("DEL", *keys)
        if getattr(store.kv, "supports_tiering", False):
            # The DEL above evicted every *indexed* cold copy; the subject
            # marker voids any archived stragglers and persists the
            # erasure on the cold device itself (fsynced), independent of
            # the keystore tombstone below.
            receipt.cold_segments_voided += \
                store.kv.erase_subject_cold(subject)
        crypto_erased = False
        if store.config.encrypt_at_rest:
            crypto_erased = store.keystore.erase_key(subject)
        compact = store.config.compact_on_erasure if compact_log is None \
            else compact_log
        compacted = False
        if compact and store.kv.aof_log is not None:
            store.kv.rewrite_aof()
            compacted = True
        if store.kv.aof_log is not None:
            aof_bytes = store.kv.aof_log.read_all()
            if mentioned_keys(aof_bytes,
                              [key.encode("utf-8") for key in keys]):
                receipt.residual_in_aof = True
        receipt.completed_at = store.clock.now()
        store.audit.append(principal=principal.name, operation="erase-subject",
                           subject=store._audit_name(subject), outcome="ok",
                           detail=f"{len(keys)} keys, crypto={crypto_erased}, "
                                  f"compacted={compacted}")
        receipt.crypto_erased = receipt.crypto_erased or crypto_erased
        receipt.log_compacted = receipt.log_compacted or compacted
        receipt.shards_touched.append(shard)
        erased.update(keys)
    receipt.keys_erased = sorted(erased)
    return receipt


def right_to_portability(target, subject: str, fmt: str = "json",
                         principal: Optional[Principal] = None) -> bytes:
    """Art. 20: export all the subject's data in a commonly used format."""
    if principal is None:
        principal = Principal.subject(subject)
    chosen: Dict[str, dict] = {}
    for shard, store, keys in _holders(target, subject):
        for key in keys:
            record = store.get(key, principal=principal)
            _keep(chosen, target, shard, {
                "key": key,
                "value": record.value.decode("utf-8", "replace"),
                "purposes": sorted(record.metadata.purposes),
                "origin": record.metadata.origin,
            })
        store.audit.append(principal=principal.name, operation="export",
                           subject=store._audit_name(subject), outcome="ok",
                           detail=f"{len(keys)} records as {fmt}")
    rows = sorted(chosen.values(), key=lambda row: row["key"])
    if fmt == "json":
        return json.dumps({"subject": subject, "records": rows},
                          sort_keys=True, indent=2).encode("utf-8")
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=["key", "value", "purposes", "origin"])
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "purposes": ";".join(row["purposes"])})
        return buffer.getvalue().encode("utf-8")
    raise ValueError(f"unsupported export format {fmt!r}")


def right_to_object(target, subject: str, purpose: str,
                    principal: Optional[Principal] = None) -> int:
    """Art. 21: blacklist ``purpose`` on every record of ``subject``.

    Returns the number of distinct records updated.  Subsequent
    ``process_for_purpose`` calls skip them; direct reads for that purpose
    raise :class:`~repro.common.errors.PurposeViolationError`.
    """
    if principal is None:
        principal = Principal.subject(subject)
    updated = set()
    for _, store, keys in _holders(target, subject):
        for key in keys:
            record = store.get(key, principal=principal)
            new_meta = record.metadata.with_objection(purpose)
            store.update_metadata(key, new_meta, principal=CONTROLLER)
        store.audit.append(principal=principal.name, operation="object",
                           subject=store._audit_name(subject),
                           purpose=purpose, outcome="ok",
                           detail=f"{len(keys)} records")
        updated.update(keys)
    return len(updated)


def transfer_subject(source, target: GDPRStore, subject: str,
                     principal: Optional[Principal] = None) -> int:
    """Art. 20's second half: transmit directly to another controller.

    Re-stores each record in ``target`` (which applies its own residency
    and purpose checks) and marks the new controller as a recipient in the
    source's metadata.
    """
    if principal is None:
        principal = Principal.subject(subject)
    moved = set()
    for _, store, keys in _holders(source, subject):
        for key in keys:
            record = store.get(key, principal=principal)
            target.put(key, record.value, record.metadata,
                       principal=CONTROLLER)
            store.update_metadata(
                key, record.metadata.with_shared(target.config.node_id),
                principal=CONTROLLER)
        store.audit.append(principal=principal.name, operation="transfer",
                           subject=store._audit_name(subject), outcome="ok",
                           detail=f"{len(keys)} records -> "
                                  f"{target.config.node_id}")
        moved.update(keys)
    return len(moved)
