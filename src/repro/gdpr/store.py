"""GDPRStore: the GDPR-compliant layer over the key-value store.

This is the reproduction of the paper's contribution -- "GDPR-compliant
Redis" -- packaged as a reusable layer rather than a patch.  Every feature
from section 3.1 is wired through one facade:

* **Timely deletion** -- metadata TTLs become store expirations; every
  erasure (explicit, lazy, or active) is timestamped against its deadline.
* **Monitoring** -- every data- and control-path interaction appends to a
  hash-chained :class:`~repro.gdpr.audit.AuditLog` whose durability knob
  is the paper's sync/batched spectrum.
* **Indexing** -- inverted indexes by owner/purpose/recipient power the
  subject-rights operations.
* **Access control** -- default-deny, purpose- and time-scoped grants.
* **Encryption** -- envelopes sealed per data subject, so destroying a
  subject's key (crypto-erasure) voids replicas, AOF history, and backups.
* **Location** -- records carry residency constraints checked at write.

Subject rights (Art. 15/17/20/21) are implemented in
:mod:`repro.gdpr.rights` on top of this class; :mod:`repro.gdpr.node`
serves the same methods and rights as commands of a cluster node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..common.clock import Clock
from ..common.errors import (
    AccessDeniedError,
    IntegrityError,
    KeyErasedError,
    KeyNotFoundError,
    PurposeViolationError,
    StoreError,
)
from ..crypto.keystore import KeyStore
from ..device.append_log import AppendLog, BarrierScope
from ..engine.base import StorageEngine
from ..kvstore.store import KeyValueStore, StoreConfig
from .access_control import AccessController, Operation, Principal
from .audit import AuditDurability, AuditLog
from .indexing import MetadataIndex, WriteBehindIndexer
from .location import LocationManager
from .metadata import GDPRMetadata, Record, pack_envelope, unpack_envelope

CONTROLLER = Principal.controller()


#: Seconds past its deadline an erasure may land before it counts as an
#: SLA breach in :meth:`GDPRStore.erasure_report` (the eventual-
#: compliance window).
ERASURE_SLA = 3600.0


@dataclass
class GDPRConfig:
    """Policy knobs of the GDPR layer (the compliance spectrum)."""

    encrypt_at_rest: bool = True
    audit_durability: AuditDurability = AuditDurability.SYNC
    audit_batch_interval: float = 1.0
    region: str = "eu-west"
    node_id: str = "node-0"
    compact_on_erasure: bool = True     # rewrite AOF after Art. 17 erasure
    # Fast-GDPR mode: amortize compliance work off the critical path.
    # Engine-side metadata/location bookkeeping goes write-behind (one
    # batched annotation per flush); with a BATCH audit, records seal
    # into blocks of ``audit_block_size`` (one chain update + one
    # group-commit fsync per block).  Tamper evidence and determinism
    # are preserved; the cost is a bounded compliance-visibility window
    # (at most one unsealed block / one write-behind interval).
    fast_gdpr: bool = False
    audit_block_size: int = 64          # records per BATCH block


class GDPRStore:
    """The GDPR-compliant store facade.

    ``kv`` is any :class:`~repro.engine.base.StorageEngine` -- the
    Redis-like :class:`~repro.kvstore.store.KeyValueStore` (default) or
    the relational :class:`~repro.sqlstore.engine.RelationalStore`.
    The layer programs strictly against the engine interface (commands,
    deletion taps, keyspace scans, durability hooks); on engines that
    store GDPR metadata as indexed columns it additionally annotates
    each record's row and prefers the engine's native owner index for
    subject lookups.
    """

    def __init__(self, kv: Optional[StorageEngine] = None,
                 config: Optional[GDPRConfig] = None,
                 keystore: Optional[KeyStore] = None,
                 audit: Optional[AuditLog] = None,
                 access: Optional[AccessController] = None,
                 locations: Optional[LocationManager] = None) -> None:
        self.config = config if config is not None else GDPRConfig()
        self.kv = kv if kv is not None else KeyValueStore(
            StoreConfig(appendonly=True, aof_log_reads=True))
        self.clock: Clock = self.kv.clock
        self.keystore = keystore if keystore is not None else KeyStore()
        self.audit = audit if audit is not None else AuditLog(
            clock=self.clock, durability=self.config.audit_durability,
            batch_interval=self.config.audit_batch_interval,
            block_size=self.config.audit_block_size)
        self.access = access if access is not None else AccessController()
        self.locations = locations if locations is not None \
            else LocationManager()
        if not self.locations.has_node(self.config.node_id):
            self.locations.place_node(self.config.node_id,
                                      self.config.region)
        self.index = MetadataIndex()
        #: The store a restart (:meth:`reopen`, :meth:`restore`) built in
        #: this one's place; None while this one is live.
        self.successor: Optional["GDPRStore"] = None
        # One barrier scope per request over the audit device and the
        # engine's log: a SYNC/``always`` request pays one fsync per
        # device at its end.  The audit device's comes first because a
        # SYNC audit's block seal in ``before_barrier`` is that fsync
        # (not because of the order named here), so no durable write's
        # processing is left unaudited.
        self._request = BarrierScope(self.audit.log, self.kv.aof_log)
        # Erasure timeliness as the aggregates erasure_report() reads:
        # no erased key or subject name outlives its deletion here.
        self._erasures = 0
        self._timed_erasures = 0
        self._max_lateness = 0.0
        self._lateness_sum = 0.0
        self._sla_breaches = 0
        self._writebehind: Optional[WriteBehindIndexer] = None
        if self.config.fast_gdpr:
            self._writebehind = WriteBehindIndexer(
                self._apply_writebehind, clock=self.clock)
        self.kv.add_deletion_listener(self._on_kv_deletion)
        if getattr(self.kv, "supports_tiering", False):
            # A tiering engine archives idle records into cold segments:
            # give it the keystore (demoted values seal under their
            # subject's key, so crypto-erasure reaches the archive),
            # audit its tier events, and drain deferred compliance work
            # before any record leaves the hot tier.
            self.kv.attach_keystore(self.keystore)
            self.kv.add_tier_listener(self._on_tier_event)
            if self._writebehind is not None:
                self.kv.before_demote = self._writebehind.flush

    # -- internal helpers ---------------------------------------------------------

    def _seal(self, key: str, metadata: GDPRMetadata,
              value: bytes) -> bytes:
        envelope = pack_envelope(metadata, value)
        if not self.config.encrypt_at_rest:
            return envelope
        return self.keystore.seal(metadata.owner, envelope, key.encode("utf-8"))

    def _unseal(self, key: str, blob: bytes) -> bytes:
        if not self.config.encrypt_at_rest:
            return blob
        return self.keystore.open(blob, key.encode("utf-8"))

    def _apply_writebehind(self, batch: Dict[str, GDPRMetadata]) -> None:
        """Deferred per-write maintenance (the write-behind flush body):
        engine-native metadata annotation for every pending key in one
        call, then location bookkeeping."""
        self.kv.annotate_metadata([(key, metadata.owner, metadata.purposes)
                                   for key, metadata in batch.items()])
        for key in batch:
            self.locations.record_stored(key, self.config.region)

    def _on_tier_event(self, event: str, detail: str,
                       subject: Optional[str]) -> None:
        """Tier listener: demotions, promotions, and cold erasures are
        compliance-relevant data movements -- chain them."""
        self.audit.append("system", f"tier-{event}", None, subject,
                          None, "ok", detail=detail)

    def _on_kv_deletion(self, db_index: int, key_bytes: bytes,
                        reason: str, when: float) -> None:
        """Deletion listener: keep indexes honest, timestamp erasures."""
        if reason == "demote":
            # A demotion is a tier move, not an erasure: the record is
            # still served (promote-on-read), so metadata, location, and
            # erasure bookkeeping must not see it.
            return
        key = key_bytes.decode("utf-8", "replace")
        if self._writebehind is not None:
            # Never apply deferred maintenance to a dead key (a late
            # annotation would resurrect compliance state).
            self._writebehind.discard(key)
        metadata = self.index.remove(key)
        if metadata is None:
            return
        self.locations.record_erased(key)
        self._erasures += 1
        deadline = metadata.expire_at()
        if deadline is not None:
            lateness = max(when - deadline, 0.0)
            self._timed_erasures += 1
            self._max_lateness = max(self._max_lateness, lateness)
            self._lateness_sum += lateness
            if lateness > ERASURE_SLA:
                self._sla_breaches += 1
        if reason != "del":
            # Explicit deletes are audited by their caller with the acting
            # principal; TTL reclamation is the system acting on its own.
            self.audit.append("system", "expire-erase", key,
                              metadata.owner, None, "ok", detail=reason)

    # -- data path -------------------------------------------------------------------

    def put(self, key: str, value: bytes, metadata: GDPRMetadata,
            principal: Principal = CONTROLLER,
            purpose: Optional[str] = None) -> None:
        """Store personal data with its GDPR metadata.

        Enforces, in order: access control, purpose declaration (Art. 5),
        residency (Art. 46).  Applies the TTL as a store expiration and
        audits the write.
        """
        with self._request:
            now = self.clock.now()
            try:
                self.access.check(principal, Operation.WRITE, metadata,
                                  purpose, now)
            except AccessDeniedError:
                self.audit.append(principal.name, "put", key, metadata.owner,
                                  purpose, "denied")
                raise
            if not metadata.purposes:
                self.audit.append(principal.name, "put", key, metadata.owner,
                                  purpose, "error", "no declared purpose")
                raise PurposeViolationError(
                    f"record {key!r} declares no processing purpose "
                    "(Art. 5 purpose limitation)")
            if metadata.created_at == 0.0:
                metadata = replace(metadata, created_at=now)
            self.locations.check_placement(metadata, self.config.region)
            blob = self._seal(key, metadata, value)
            if self._writebehind is not None:
                # Fast-GDPR: the sidecar index is updated inline (reads
                # check purpose/access against it), and the engine's
                # annotation and the location bookkeeping wait for the
                # write-behind flush.  The audit append buffers into the
                # current block -- no fsync here.
                if self._write(key, blob, metadata):
                    self._writebehind.enqueue(key, metadata)
            else:
                self.store_record(key, blob, metadata)
            self.audit.append(principal.name, "put", key, metadata.owner,
                              purpose, "ok")

    def _write(self, key: str, blob: bytes, metadata: GDPRMetadata) -> bool:
        """The one write shape: one engine command and one log record
        per record -- ``SET key blob``, or ``SET key blob PXAT ms`` with
        the retention deadline -- then the sidecar index entry.  The
        owner is named to the engine first, so the log files the record
        with the subject's other keys.  Returns whether the record
        lives: a deadline already past makes the ``SET`` a delete, and
        then no index entry is left."""
        self.kv.name_owner(key.encode("utf-8"), metadata.owner)
        deadline = metadata.expire_at()
        if deadline is None:
            self.kv.execute("SET", key, blob)
        else:
            millis = int(deadline * 1000)
            self.kv.execute("SET", key, blob, "PXAT", millis)
            if millis / 1000 <= self.clock.now() \
                    and not self.kv.has_live_key(key.encode("utf-8")):
                return False
        self.index.add(key, metadata)
        return True

    def store_record(self, key: str, blob: bytes,
                     metadata: GDPRMetadata) -> None:
        """The strict write: :meth:`_write`, then -- for a record that
        lives -- the engine's own metadata columns (the relational
        schema; a no-op on the key-value engine, whose metadata lives in
        the sealed envelope plus the sidecar index) and its location.
        Puts and metadata updates write records this way."""
        if self._write(key, blob, metadata):
            self.kv.annotate_metadata(
                [(key, metadata.owner, metadata.purposes)])
            self.locations.record_stored(key, self.config.region)

    def get(self, key: str, principal: Principal = CONTROLLER,
            purpose: Optional[str] = None) -> Record:
        """Read one record, enforcing access control and purpose limits."""
        with self._request:
            now = self.clock.now()
            metadata = self.index.get_metadata(key)
            try:
                self.access.check(principal, Operation.READ, metadata,
                                  purpose, now)
            except AccessDeniedError:
                self.audit.append(principal.name, "get", key,
                                  metadata.owner if metadata else None,
                                  purpose, "denied")
                raise
            if purpose is not None and metadata is not None \
                    and not metadata.allows_purpose(purpose):
                self.audit.append(principal.name, "get", key, metadata.owner,
                                  purpose, "denied", "purpose not permitted")
                raise PurposeViolationError(
                    f"purpose {purpose!r} is not permitted for {key!r}")
            blob = self.kv.execute("GET", key)
            if blob is None:
                self.audit.append(principal.name, "get", key,
                                  metadata.owner if metadata else None,
                                  purpose, "error", "not found")
                raise KeyError(key)
            owner = metadata.owner if metadata else "unknown"
            try:
                envelope = self._unseal(key, blob)
            except (KeyNotFoundError, IntegrityError):
                # Crypto-erased: ciphertext remains but is unreadable forever.
                self.audit.append(principal.name, "get", key, owner,
                                  purpose, "error", "crypto-erased")
                raise KeyError(key)
            stored_metadata, value = unpack_envelope(envelope, metadata)
            self.audit.append(principal.name, "get", key,
                              stored_metadata.owner, purpose, "ok")
            return Record(key=key, value=value, metadata=stored_metadata)

    def delete(self, key: str, principal: Principal = CONTROLLER) -> bool:
        """Explicitly erase one record (audited with the acting principal)."""
        with self._request:
            now = self.clock.now()
            metadata = self.index.get_metadata(key)
            try:
                self.access.check(principal, Operation.DELETE, metadata,
                                  None, now)
            except AccessDeniedError:
                self.audit.append(principal.name, "delete", key,
                                  metadata.owner if metadata else None,
                                  None, "denied")
                raise
            removed = self.kv.execute("DEL", key)
            self.audit.append(principal.name, "delete", key,
                              metadata.owner if metadata else None,
                              None, "ok" if removed else "error",
                              "" if removed else "not found")
            return bool(removed)

    def update(self, key: str, merge: Callable[[bytes], bytes],
               principal: Principal = CONTROLLER,
               purpose: Optional[str] = None) -> None:
        """Read-modify-write one record inside the store: a :meth:`get`
        and a :meth:`put` of ``merge(value)`` under the record's own
        metadata -- the same checks, engine commands and audit records
        (``get``, then ``put``) -- in one request, so under SYNC its two
        audit records share one fsync.  Nothing is returned: the value
        never leaves the store (data minimisation, Art. 5(1)(c))."""
        with self._request:
            record = self.get(key, principal, purpose)
            self.put(key, merge(record.value), record.metadata, principal,
                     purpose)

    def update_metadata(self, key: str, metadata: GDPRMetadata,
                        principal: Principal = CONTROLLER) -> None:
        """Control-path change: re-store the record under new metadata.
        Metadata that carries no ``created_at`` keeps the record's, so
        its retention runs from when :meth:`put` stamped the record."""
        with self._request:
            record = self.get(key, principal=principal)
            now = self.clock.now()
            self.access.check(principal, Operation.WRITE, metadata, None, now)
            if metadata.created_at == 0.0:
                metadata = replace(
                    metadata, created_at=record.metadata.created_at)
            self.locations.check_placement(metadata, self.config.region)
            self.store_record(key, self._seal(key, metadata, record.value),
                              metadata)
            self.audit.append(principal.name, "update-metadata", key,
                              metadata.owner, None, "ok")

    # -- group access (Art. 5 / 21) --------------------------------------------------

    def keys_of_subject(self, subject: str) -> List[str]:
        """Every key the subject owns.

        On engines with native metadata columns this is one indexed
        query against the row data (the relational schema's payoff);
        otherwise the sidecar inverted index answers.
        """
        if self._writebehind is not None:
            # Subject rights need the *current* view: drain deferred
            # annotations before consulting the engine's native index.
            self._writebehind.flush()
        native = self.kv.keys_of_owner(subject)
        if native is not None:
            return native
        return self.index.keys_of_owner(subject)

    def process_for_purpose(self, purpose: str,
                            principal: Principal = CONTROLLER
                            ) -> List[Record]:
        """Read every record processable under ``purpose``.

        Records whose owners objected (Art. 21) are excluded by the index;
        each read is individually access-checked and audited -- the honest
        cost of purpose-limited processing -- in one request, so under
        SYNC the reads' audit records share one fsync.
        """
        records = []
        with self._request:
            for key in self.index.keys_for_purpose(purpose):
                try:
                    records.append(self.get(key, principal=principal,
                                            purpose=purpose))
                except (KeyError, AccessDeniedError, PurposeViolationError):
                    continue
        return records

    # -- maintenance -----------------------------------------------------------------

    def tick(self) -> None:
        """Drive the engine's cron (expiry cycles, vacuum, tiering).  The
        audit group commit, the logs' everysec fsyncs and the
        write-behind flush are no part of it: each runs on a timer on
        the store's clock."""
        self._refuse_if_stopped()
        self.kv.tick()

    def flush_compliance(self) -> None:
        """Synchronously close the fast-GDPR visibility window: drain the
        write-behind dirty-set and seal + group-commit the audit log.
        After this barrier the store's compliance state is as current as
        strict mode's."""
        self._refuse_if_stopped()
        if self._writebehind is not None:
            self._writebehind.flush()
        self.audit.sync()

    def reopen(self, clock: Optional[Clock] = None) -> "GDPRStore":
        """This store restarted over its own devices, on ``clock``
        (default: its own): its engine reopened (:meth:`~repro.engine.
        base.StorageEngine.reopen`: the durable log replayed, a tiered
        engine's cold archive recovered), an :class:`AuditLog` over the
        same audit device, with the same durability, block size and
        interval, which continues the chain where its durable blocks
        end, and the indexes rebuilt from the replayed keyspace
        (:meth:`rebuild_indexes`).  This store stops (:meth:`_stop`):
        it shares the devices, so it refuses every later request.

        The :class:`~repro.crypto.keystore.KeyStore`, the
        :class:`AccessController` and the :class:`LocationManager` are
        carried over live, not rebuilt: they keep no device of their own,
        so a restart has nothing to read them back from -- the keystore
        until it gets a durable key journal.  The locations keep the
        node's placement, and a key's region only if the key is
        recovered.  :meth:`restore` restarts the store the same way over
        a copy of a backup generation's device."""
        self._stop("reopen")
        kv, old = self.kv.reopen(clock), self.audit
        old.log.reopen(kv.clock)
        return self._successor(kv, AuditLog(
            old.log, kv.clock, old.durability, old.batch_interval,
            old.record_cpu_cost, block_size=old.block_size))

    def restore(self, log: AppendLog) -> "GDPRStore":
        """This store restarted over ``log``, a copy of a backup
        generation's device (:meth:`~repro.gdpr.backup.BackupManager.
        restore`), as :meth:`reopen` restarts it over its own: an engine
        of its configuration built over ``log`` and replayed from it
        (:meth:`~repro.engine.base.StorageEngine.restarted`; a tiered
        engine's cold tier starts empty), the indexes rebuilt, and the
        keystore, grants and locations carried over.  The audit chain
        goes on in this store's own :class:`AuditLog`, whose device saw
        no crash.  This store stops (:meth:`_stop`) and so does its
        engine (:meth:`~repro.engine.base.StorageEngine.stop`); drop it.
        The keystore's tombstones are the one key authority: the
        rebuild deletes every restored record of a subject crypto-erased
        since the backup."""
        kv = self.kv.restarted(log, clock=self.clock)
        self._stop("restore")
        self.kv.stop()
        return self._successor(kv, self.audit)

    def _stop(self, restart: str) -> None:
        """Stop this store for a successor: the write-behind timer stops,
        the locations forget this store's keys (the successor records
        the ones it recovers), and the request scope becomes one that
        refuses every request, naming ``restart``, before any device
        step."""
        if self._writebehind is not None:
            self._writebehind.timer.cancel()
        for key in self.index.keys():
            self.locations.record_erased(key)
        self._request = _Stopped(restart)

    def _refuse_if_stopped(self) -> None:
        """Raise, as a request would, once a restart replaced this
        store."""
        if isinstance(self._request, _Stopped):
            self._request.__enter__()

    def _successor(self, kv: StorageEngine, audit: AuditLog) -> "GDPRStore":
        """The restarted store around ``kv`` and ``audit``, named as this
        one's :attr:`successor`."""
        store = GDPRStore(kv, self.config, self.keystore, audit,
                          self.access, self.locations)
        store.rebuild_indexes()
        self.successor = store
        return store

    def rebuild_indexes(self) -> int:
        """Rebuild in-memory indexes by scanning the keyspace (restart
        path), through the engine's :meth:`~repro.engine.base.
        StorageEngine.scan_records` view, so it works over any backend.
        Each record is opened once, with the key its sid names
        (:meth:`~repro.crypto.keystore.KeyStore.open`).  Every record
        whose sid is tombstoned -- a subject crypto-erased since it was
        written, brought back by a backup or a log no erasure rewrote --
        is deleted, in one ``DEL``; a record no key opens is skipped.
        Each recovered key's owner is named to the engine
        (:meth:`~repro.engine.base.StorageEngine.name_owner`), as
        :meth:`put` names it, and all of them are annotated in one
        :meth:`~repro.engine.base.StorageEngine.annotate_metadata` call
        (one statement and one WAL record on the relational engine)."""
        if self._writebehind is not None:
            self._writebehind.flush()
        entries: List[Tuple[str, GDPRMetadata]] = []
        erased: List[bytes] = []
        for key_bytes, blob, *_ in self.kv.scan_records(0):
            if not isinstance(blob, bytes):
                continue
            key = key_bytes.decode("utf-8", "replace")
            try:
                entries.append(
                    (key, unpack_envelope(self._unseal(key, blob))[0]))
            except KeyErasedError:
                erased.append(key_bytes)
            except Exception:
                continue    # a foreign value, or a record no key opens
        if erased:
            self.kv.execute("DEL", *erased)
        count = self.index.rebuild(entries)
        for key, metadata in entries:
            # So an unsplit log's first split files a subject's keys
            # together, as it would have without the restart.
            self.kv.name_owner(key.encode("utf-8"), metadata.owner)
            self.locations.record_stored(key, self.config.region)
        self.kv.annotate_metadata([(key, metadata.owner, metadata.purposes)
                                   for key, metadata in entries])
        return count

    # -- reporting --------------------------------------------------------------------

    def erasure_report(self) -> Dict[str, float]:
        """Timeliness of deletions: the GDPR-level view of Figure 2.
        Lateness is seconds past a record's deadline (never negative)
        over the erasures of records that had one."""
        timed = self._timed_erasures
        return {
            "events": float(self._erasures),
            "with_deadline": float(timed),
            "max_lateness": self._max_lateness,
            "mean_lateness": self._lateness_sum / timed if timed else 0.0,
            "sla_breaches": float(self._sla_breaches),
        }

    def live_keys_with_prefix(self, prefix: str) -> List[bytes]:
        return self.kv.live_keys_with_prefix(prefix)

    def subject_parts(self, body, subject: str, principal: Principal,
                      arg=None) -> List[Tuple[int, dict]]:
        """``[(0, part)]`` when ``body`` -- a right's per-store half in
        :mod:`repro.gdpr.rights` -- finds ``subject``'s records here,
        else ``[]``: the one part a right merges for a single store.
        The body runs as one request (one barrier scope)."""
        with self._request:
            part = body(self, subject, principal, arg)
        return [(0, part)] if part is not None else []


class _Stopped(NamedTuple):
    """The request scope of a store a restart replaced: entering it
    raises StoreError, so a request through a stale reference reaches
    no device (the live store shares them)."""

    restart: str

    def __enter__(self) -> None:
        raise StoreError(f"this store was stopped by its {self.restart}: "
                         "use the store the restart returned")

    def __exit__(self, *exc_info) -> None:
        pass
