"""Data-subject rights (GDPR Art. 15, 17, 20, 21) over a GDPRStore.

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

Every right here operates on **one** :class:`GDPRStore`; the cluster
layer's :class:`~repro.cluster.sharded_store.ShardedGDPRStore` composes
them across shards.  The cross-shard invariants that composition relies
on:

* **Audit evidence is local.**  Each function appends to *this* store's
  hash-chained audit log; fan-out therefore leaves one record per shard
  touched, never a cross-shard record (chains verify per shard).
* **Erasure fan-out covers every copy.**  ``right_to_erasure`` erases
  the keys *this* shard indexes.  During a live slot migration both the
  source and the importing target index the same key, so the cluster
  calls it on both -- and the migration layer cascades source deletes to
  target shadows, so whichever runs first, no copy survives.  The
  crypto-erasure step voids the subject's ciphertexts globally (one
  shared keystore) even where AOF bytes linger.
* **One lookup, one ``DEL`` per store.**  Each right looks the subject
  up once (:meth:`GDPRStore.require_subject` returns the keys), and
  Art. 17 deletes them with one engine-internal ``DEL k1 ... kn``: one
  command charge, one log record and one replicated event per store.
  CROSSSLOT is a client-routing rule and never applies to the store's
  own deletes (Redis applies its internal deletes the same way), so a
  subject's records may span arbitrarily many slots and shards.
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
from .metadata import GDPRMetadata
from .store import CONTROLLER, GDPRStore


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
    keys_erased: List[str]
    crypto_erased: bool
    log_compacted: bool
    residual_in_aof: bool   # deleted keys still visible in the AOF?
    #: Cold segments the erasure reached (tiered stores only): every
    #: archived ciphertext of the subject is void without a rewrite.
    cold_segments_voided: int = 0

    @property
    def duration(self) -> float:
        return self.completed_at - self.requested_at


def right_of_access(store: GDPRStore, subject: str,
                    principal: Optional[Principal] = None) -> AccessReport:
    """Art. 15: everything we hold about ``subject`` and how it is used."""
    if principal is None:
        principal = Principal.subject(subject)
    keys = store.require_subject(subject)
    started = store.clock.now()
    report = AccessReport(subject=subject, generated_at=started)
    purposes = set()
    recipients = set()
    tiered = getattr(store.kv, "supports_tiering", False)
    cold_keys = set()
    if tiered:
        # Which of the subject's records live in the archive right now?
        # Answered from the per-subject segment blooms -- captured before
        # the reads below promote them.
        cold_keys = {k.decode("utf-8", "replace")
                     for k in store.kv.cold_keys_of_subject(subject)}
    for key in keys:
        record = store.get(key, principal=principal)
        meta = record.metadata
        purposes.update(meta.purposes)
        recipients.update(meta.shared_with)
        if meta.decision_making:
            report.automated_decision_keys.append(key)
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
        report.records.append(row)
    report.purposes = sorted(purposes)
    report.recipients = sorted(recipients)
    report.elapsed = store.clock.now() - started
    store.audit.append(principal=principal.name, operation="access-report",
                       subject=store._audit_name(subject), outcome="ok",
                       detail=f"{len(report.records)} records")
    return report


def right_to_erasure(store: GDPRStore, subject: str,
                     principal: Optional[Principal] = None,
                     compact_log: Optional[bool] = None) -> ErasureReceipt:
    """Art. 17: erase the subject everywhere, without undue delay.

    Erasure depth is three layers:

    1. one keyspace DEL of every key (immediate inaccessibility),
    2. crypto-erasure of the subject's data key (voids AOF history,
       snapshots, and backups even where ciphertext bytes linger),
    3. optional AOF compaction so not even ciphertext persists
       (``compact_log`` defaults to the store's ``compact_on_erasure``).
    """
    if principal is None:
        principal = Principal.subject(subject)
    keys = store.require_subject(subject)
    requested_at = store.clock.now()
    store.access.check(principal, Operation.DELETE,
                       store.index.get_metadata(keys[0]), None, requested_at)
    store.kv.execute("DEL", *keys)
    cold_voided = 0
    if getattr(store.kv, "supports_tiering", False):
        # The DEL above evicted every *indexed* cold copy; the subject
        # marker voids any archived stragglers and persists the erasure
        # on the cold device itself (fsynced), independent of the
        # keystore tombstone below.
        cold_voided = store.kv.erase_subject_cold(subject)
    crypto_erased = False
    if store.config.encrypt_at_rest:
        crypto_erased = store.keystore.erase_key(subject)
    if compact_log is None:
        compact_log = store.config.compact_on_erasure
    compacted = False
    if compact_log and store.kv.aof_log is not None:
        store.kv.rewrite_aof()
        compacted = True
    residual = False
    if store.kv.aof_log is not None:
        aof_bytes = store.kv.aof_log.read_all()
        residual = bool(mentioned_keys(
            aof_bytes, [key.encode("utf-8") for key in keys]))
    completed_at = store.clock.now()
    store.audit.append(principal=principal.name, operation="erase-subject",
                       subject=store._audit_name(subject), outcome="ok",
                       detail=f"{len(keys)} keys, crypto={crypto_erased}, "
                              f"compacted={compacted}")
    return ErasureReceipt(
        subject=subject, requested_at=requested_at,
        completed_at=completed_at, keys_erased=keys,
        crypto_erased=crypto_erased, log_compacted=compacted,
        residual_in_aof=residual, cold_segments_voided=cold_voided)


def portability_rows(store: GDPRStore, subject: str, fmt: str = "json",
                     principal: Optional[Principal] = None) -> List[dict]:
    """Collect (and audit) one store's Art. 20 export rows.

    Shared by single-store portability and the cluster layer's
    cross-shard export, which merges rows from every shard.
    """
    if principal is None:
        principal = Principal.subject(subject)
    rows = []
    for key in store.require_subject(subject):
        record = store.get(key, principal=principal)
        rows.append({
            "key": key,
            "value": record.value.decode("utf-8", "replace"),
            "purposes": sorted(record.metadata.purposes),
            "origin": record.metadata.origin,
        })
    store.audit.append(principal=principal.name, operation="export",
                       subject=store._audit_name(subject), outcome="ok",
                       detail=f"{len(rows)} records as {fmt}")
    return rows


def render_portability(subject: str, rows: List[dict],
                       fmt: str = "json") -> bytes:
    """Serialize export rows into the commonly used format."""
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


def right_to_portability(store: GDPRStore, subject: str,
                         fmt: str = "json",
                         principal: Optional[Principal] = None) -> bytes:
    """Art. 20: export all the subject's data in a commonly used format."""
    rows = portability_rows(store, subject, fmt=fmt, principal=principal)
    return render_portability(subject, rows, fmt)


def right_to_object(store: GDPRStore, subject: str, purpose: str,
                    principal: Optional[Principal] = None) -> int:
    """Art. 21: blacklist ``purpose`` on every record of ``subject``.

    Returns the number of records updated.  Subsequent
    ``process_for_purpose`` calls skip them; direct reads for that purpose
    raise :class:`~repro.common.errors.PurposeViolationError`.
    """
    if principal is None:
        principal = Principal.subject(subject)
    updated = 0
    for key in store.require_subject(subject):
        record = store.get(key, principal=principal)
        new_meta = record.metadata.with_objection(purpose)
        store.update_metadata(key, new_meta, principal=CONTROLLER)
        updated += 1
    store.audit.append(principal=principal.name, operation="object",
                       subject=store._audit_name(subject), purpose=purpose,
                       outcome="ok", detail=f"{updated} records")
    return updated


def transfer_subject(source: GDPRStore, target: GDPRStore, subject: str,
                     principal: Optional[Principal] = None) -> int:
    """Art. 20's second half: transmit directly to another controller.

    Re-stores each record in ``target`` (which applies its own residency
    and purpose checks) and marks the new controller as a recipient in the
    source's metadata.
    """
    if principal is None:
        principal = Principal.subject(subject)
    moved = 0
    for key in source.require_subject(subject):
        record = source.get(key, principal=principal)
        target.put(key, record.value, record.metadata,
                   principal=CONTROLLER)
        source.update_metadata(
            key, record.metadata.with_shared(target.config.node_id),
            principal=CONTROLLER)
        moved += 1
    source.audit.append(principal=principal.name, operation="transfer",
                        subject=source._audit_name(subject), outcome="ok",
                        detail=f"{moved} records -> "
                               f"{target.config.node_id}")
    return moved
