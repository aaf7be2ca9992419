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

This module is the only implementation of these rights.  Each right is
two halves: a *per-store body* (``_access_part`` ...) that looks the
subject up once in one store, does that store's work, appends that
store's audit record and returns a JSON-shaped *part* (None when the
store holds nothing of the subject), and one *merge* over the parts.
A *target* runs the body on every store it spans:
``target.subject_parts(body, subject, principal, arg)`` returns
``[(shard, part), ...]``.  A :class:`GDPRStore` calls the body on
itself (one part, shard 0, no wire); a cluster client
(:class:`~repro.cluster.gdpr_client.GDPRClient`) sends the right as a
broadcast command and every shard's node runs the same body inside its
command handler.  A tenant's rights are these functions called with
its qualified subject (``acme/alice``), which names only its records.
The invariants the fan-out keeps:

* **Audit evidence is local.**  Each right appends one record to each
  holding store's own hash-chained audit log, never a cross-shard record
  (chains verify per shard).
* **Migration shadows count once.**  During a live slot migration the
  source and the importing target both hold a key; Art. 15/20 keep the
  row of the shard ``target.shard_for(key)`` routes to, and Art. 21
  counts the record once.
* **Erasure reaches every copy.**  Art. 17 erases every holder's keys.
  Each store looks its keys up when its body runs, so a shadow the
  migration layer already evicted (a source delete cascades to the
  target's copy) is not erased twice, a store left empty records
  nothing, and ``shards_touched`` names only shards that recorded an
  erasure.  Crypto-erasure voids the subject's ciphertexts globally (one
  shared keystore) even where AOF bytes linger.
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
from typing import Dict, List, Optional, Tuple

from ..common.errors import UnknownSubjectError
from .access_control import Operation, Principal
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


def _parts(target, body, subject: str, principal: Optional[Principal],
           arg=None) -> List[Tuple[int, dict]]:
    """Run ``body`` on every store of ``target`` holding ``subject``."""
    if principal is None:
        principal = Principal.subject(subject)
    parts = target.subject_parts(body, subject, principal, arg)
    if not parts:
        raise UnknownSubjectError(f"no records for data subject {subject!r}")
    return parts


def _rows(target, parts: List[Tuple[int, dict]]) -> List[dict]:
    """Every part's rows, one per key, sorted by key.  A key two parts
    report (only a live migration does) keeps the row of the shard
    ``target.shard_for(key)`` routes to, so a single store never
    reaches ``shard_for``."""
    rows: Dict[str, dict] = {}
    for shard, part in parts:
        for row in part["rows"]:
            key = row["key"]
            if key not in rows or shard == target.shard_for(key):
                rows[key] = row
    return sorted(rows.values(), key=lambda row: row["key"])


def _access_part(store: GDPRStore, subject: str, principal: Principal,
                 _arg=None) -> Optional[dict]:
    keys = store.keys_of_subject(subject)
    if not keys:
        return None
    started = store.clock.now()
    tiered = getattr(store.kv, "supports_tiering", False)
    cold_keys = set()
    if tiered:
        # Which of the subject's records live in the archive right now?
        # Answered from the per-subject segment blooms -- captured
        # before the reads below promote them.
        cold_keys = {k.decode("utf-8", "replace")
                     for k in store.kv.cold_keys_of_subject(subject)}
    rows = []
    decision_keys = []
    for key in keys:
        record = store.get(key, principal=principal)
        meta = record.metadata
        if meta.decision_making:
            decision_keys.append(key)
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
        rows.append(row)
    elapsed = store.clock.now() - started
    store.audit.append(principal=principal.name, operation="access-report",
                       subject=subject, outcome="ok",
                       detail=f"{len(keys)} records")
    return {"started": started, "elapsed": elapsed, "rows": rows,
            "decision_keys": decision_keys}


def right_of_access(target, subject: str,
                    principal: Optional[Principal] = None) -> AccessReport:
    """Art. 15: everything we hold about ``subject`` and how it is used."""
    parts = _parts(target, _access_part, subject, principal)
    rows = _rows(target, parts)
    return AccessReport(
        subject=subject,
        generated_at=min(part["started"] for _, part in parts),
        records=rows,
        purposes=sorted({p for row in rows for p in row["purposes"]}),
        recipients=sorted({r for row in rows for r in row["recipients"]}),
        automated_decision_keys=sorted(
            {key for _, part in parts for key in part["decision_keys"]}),
        elapsed=max(part["elapsed"] for _, part in parts))


def _erasure_part(store: GDPRStore, subject: str, principal: Principal,
                  _arg=None) -> Optional[dict]:
    keys = store.keys_of_subject(subject)
    if not keys:
        return None
    requested_at = store.clock.now()
    store.access.check(principal, Operation.DELETE,
                       store.index.get_metadata(keys[0]), None,
                       store.clock.now())
    aof = store.kv.aof
    compacted = aof is not None and store.config.compact_on_erasure
    crypto_erased = store.config.encrypt_at_rest and subject in store.keystore
    # The records come first and, under SYNC, are durable at one commit
    # before the first barrier the erasure pays as written (a cold seal
    # or marker, the log rewrite): no durable erasure is left unaudited.
    store.audit.append(principal=principal.name, operation="erase-subject",
                       subject=subject, outcome="ok",
                       detail=f"{len(keys)} keys, crypto={crypto_erased}, "
                              f"compacted={compacted}")
    cold_voided = 0
    if getattr(store.kv, "supports_tiering", False):
        # The engine's cold-erase record joins the commit.  The DEL
        # evicts every *indexed* cold copy; the subject marker voids any
        # archived stragglers and persists the erasure on the cold device
        # itself (one fsync for both), independent of the keystore
        # tombstone below.
        cold_voided = store.kv.erase_subject_cold(subject, keys,
                                                  store.audit.commit)
    else:
        store.audit.commit()
        store.kv.execute("DEL", *keys)
    if store.config.encrypt_at_rest:
        store.keystore.erase_key(subject)
    residual = False
    if aof is not None:
        names = [key.encode("utf-8") for key in keys]
        if compacted:
            store.kv.rewrite_aof(names)
        residual = bool(aof.mentioned_keys(names))
        if residual and compacted:
            # A logged read without key positions (a RANGE starting at
            # one of the keys) sits in a part no erased key owns.
            store.kv.rewrite_aof()
            residual = bool(aof.mentioned_keys(names))
    completed_at = store.clock.now()
    return {"requested_at": requested_at, "completed_at": completed_at,
            "keys": keys, "crypto_erased": crypto_erased,
            "log_compacted": compacted, "residual_in_aof": residual,
            "cold_segments_voided": cold_voided}


def right_to_erasure(target, subject: str,
                     principal: Optional[Principal] = None) -> ErasureReceipt:
    """Art. 17: erase the subject everywhere, without undue delay.

    Erasure depth is three layers, on every holding store:

    1. one keyspace DEL of every key (immediate inaccessibility),
    2. crypto-erasure of the subject's data key (voids AOF history,
       snapshots, and backups even where ciphertext bytes linger),
    3. AOF compaction so not even ciphertext persists, on each store
       whose ``compact_on_erasure`` is set: a rewrite of the log parts
       that own the subject's keys, not of the whole log.
    """
    parts = _parts(target, _erasure_part, subject, principal)
    erased = [part for _, part in parts]
    return ErasureReceipt(
        subject=subject,
        requested_at=min(part["requested_at"] for part in erased),
        completed_at=max(part["completed_at"] for part in erased),
        keys_erased=sorted({key for part in erased for key in part["keys"]}),
        crypto_erased=any(part["crypto_erased"] for part in erased),
        log_compacted=any(part["log_compacted"] for part in erased),
        residual_in_aof=any(part["residual_in_aof"] for part in erased),
        cold_segments_voided=sum(part["cold_segments_voided"]
                                 for part in erased),
        shards_touched=[shard for shard, _ in parts])


def _export_part(store: GDPRStore, subject: str, principal: Principal,
                 fmt: str) -> Optional[dict]:
    keys = store.keys_of_subject(subject)
    if not keys:
        return None
    rows = []
    for key in keys:
        record = store.get(key, principal=principal)
        rows.append({
            "key": key,
            "value": record.value.decode("utf-8", "replace"),
            "purposes": sorted(record.metadata.purposes),
            "origin": record.metadata.origin,
        })
    store.audit.append(principal=principal.name, operation="export",
                       subject=subject, outcome="ok",
                       detail=f"{len(keys)} records as {fmt}")
    return {"rows": rows}


def right_to_portability(target, subject: str, fmt: str = "json",
                         principal: Optional[Principal] = None) -> bytes:
    """Art. 20: export all the subject's data in a commonly used format."""
    rows = _rows(target, _parts(target, _export_part, subject, principal,
                                fmt))
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


def _object_part(store: GDPRStore, subject: str, principal: Principal,
                 purpose: str) -> Optional[dict]:
    keys = store.keys_of_subject(subject)
    if not keys:
        return None
    for key in keys:
        record = store.get(key, principal=principal)
        store.update_metadata(key, record.metadata.with_objection(purpose),
                              principal=CONTROLLER)
    store.audit.append(principal=principal.name, operation="object",
                       subject=subject,
                       purpose=purpose, outcome="ok",
                       detail=f"{len(keys)} records")
    return {"keys": keys}


def right_to_object(target, subject: str, purpose: str,
                    principal: Optional[Principal] = None) -> int:
    """Art. 21: blacklist ``purpose`` on every record of ``subject``.

    Returns the number of distinct records updated.  Subsequent
    ``process_for_purpose`` calls skip them; direct reads for that purpose
    raise :class:`~repro.common.errors.PurposeViolationError`.
    """
    parts = _parts(target, _object_part, subject, principal, purpose)
    return len({key for _, part in parts for key in part["keys"]})


def _transfer_part(store: GDPRStore, subject: str, principal: Principal,
                   target: GDPRStore) -> Optional[dict]:
    keys = store.keys_of_subject(subject)
    if not keys:
        return None
    for key in keys:
        record = store.get(key, principal=principal)
        target.put(key, record.value, record.metadata, principal=CONTROLLER)
        store.update_metadata(
            key, record.metadata.with_shared(target.config.node_id),
            principal=CONTROLLER)
    store.audit.append(principal=principal.name, operation="transfer",
                       subject=subject, outcome="ok",
                       detail=f"{len(keys)} records -> "
                              f"{target.config.node_id}")
    return {"keys": keys}


def transfer_subject(source: GDPRStore, target: GDPRStore, subject: str,
                     principal: Optional[Principal] = None) -> int:
    """Art. 20's second half: transmit directly to another controller.

    Re-stores each record in ``target`` (which applies its own residency
    and purpose checks) and marks the new controller as a recipient in the
    source's metadata.  Both controllers are stores in this process: the
    receiving store is the body's argument, which no wire carries.
    """
    parts = _parts(source, _transfer_part, subject, principal, target)
    return len({key for _, part in parts for key in part["keys"]})
