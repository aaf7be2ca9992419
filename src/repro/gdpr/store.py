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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..common.clock import Clock
from ..common.errors import (
    AccessDeniedError,
    IntegrityError,
    KeyNotFoundError,
    LocationViolationError,
    PurposeViolationError,
)
from ..crypto.keystore import KeyStore
from ..crypto.pseudonymize import Pseudonymizer
from ..engine.base import StorageEngine
from ..kvstore.store import KeyValueStore, StoreConfig
from .access_control import AccessController, Operation, Principal
from .audit import AuditChainMode, AuditDurability, AuditLog
from .indexing import MetadataIndex, WriteBehindIndexer
from .location import LocationManager
from .metadata import GDPRMetadata, Record, pack_envelope, unpack_envelope
from .policy import PolicyEngine

CONTROLLER = Principal.controller()


@dataclass
class GDPRConfig:
    """Policy knobs of the GDPR layer (the compliance spectrum)."""

    encrypt_at_rest: bool = True
    audit_durability: AuditDurability = AuditDurability.SYNC
    audit_batch_interval: float = 1.0
    require_purpose: bool = True
    region: str = "eu-west"
    node_id: str = "node-0"
    default_ttl: Optional[float] = None
    compact_on_erasure: bool = True     # rewrite AOF after Art. 17 erasure
    pseudonymize_audit: bool = False
    erasure_sla: float = 3600.0         # eventual-compliance window (s)
    # Fast-GDPR mode: amortize compliance work off the critical path.
    # Audit records seal into hash-chained blocks (one chain update +
    # one group-commit fsync per block), value+TTL fuse into a single
    # engine command, and engine-side metadata/location bookkeeping goes
    # write-behind (one batched annotation per flush).  Tamper evidence
    # and determinism are preserved; the cost is a bounded compliance-
    # visibility window (at most one unsealed block / one write-behind
    # interval).
    fast_gdpr: bool = False
    audit_block_size: int = 64          # records per sealed block
    writebehind_interval: float = 0.1   # dirty-set flush period (s)
    audit_memory_window: Optional[int] = None   # bound on in-RAM records


@dataclass(frozen=True)
class ErasureEvent:
    """One key's removal, timestamped against its deadline."""

    key: str
    subject: str
    reason: str                 # del / lazy-expire / active-expire / erasure
    erased_at: float
    deadline: Optional[float]   # TTL deadline, if the record had one

    @property
    def lateness(self) -> Optional[float]:
        """Seconds past the deadline (negative = early); None if no TTL."""
        if self.deadline is None:
            return None
        return self.erased_at - self.deadline


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
                 locations: Optional[LocationManager] = None,
                 policies: Optional[PolicyEngine] = None) -> None:
        self.config = config if config is not None else GDPRConfig()
        self.kv = kv if kv is not None else KeyValueStore(
            StoreConfig(appendonly=True, aof_log_reads=True))
        self.clock: Clock = self.kv.clock
        self.keystore = keystore if keystore is not None else KeyStore()
        self.audit = audit if audit is not None else AuditLog(
            clock=self.clock, durability=self.config.audit_durability,
            batch_interval=self.config.audit_batch_interval,
            chain_mode=(AuditChainMode.BLOCK if self.config.fast_gdpr
                        else AuditChainMode.RECORD),
            block_size=self.config.audit_block_size,
            memory_window=self.config.audit_memory_window)
        self.access = access if access is not None else AccessController()
        self.locations = locations if locations is not None \
            else LocationManager()
        if not self.locations.has_node(self.config.node_id):
            self.locations.place_node(self.config.node_id,
                                      self.config.region)
        self.policies = policies if policies is not None else PolicyEngine()
        self.index = MetadataIndex()
        self.pseudonymizer = Pseudonymizer()
        self.erasure_events: List[ErasureEvent] = []
        self._writebehind: Optional[WriteBehindIndexer] = None
        if self.config.fast_gdpr:
            self._writebehind = WriteBehindIndexer(
                self._apply_writebehind, clock=self.clock,
                interval=self.config.writebehind_interval)
        # Per-tenant policy overrides (attach_tenant_policies): when a
        # resolver is attached, keys inside a registered tenant's
        # namespace take that tenant's policy instead of the global
        # config for retention, residency, audit, encryption, and the
        # fast-GDPR write shape.
        self._tenant_policies = None
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

    # -- tenancy ------------------------------------------------------------------

    def attach_tenant_policies(self, resolver) -> None:
        """Install a per-tenant policy resolver (duck-typed: anything
        with ``policy_for_key(name) -> policy | None``, e.g. a
        :class:`~repro.tenancy.registry.TenantRegistry`).

        Keys and subjects carrying a registered ``tenant/`` prefix are
        governed by that tenant's :class:`~repro.tenancy.registry.
        TenantPolicy`; everything else keeps the global config.  If any
        tenant opted into ``fast_gdpr`` the write-behind machinery is
        built on demand so those tenants' writes can take the amortized
        path while strict tenants stay synchronous.
        """
        self._tenant_policies = resolver
        any_fast = getattr(resolver, "any_fast_gdpr", None)
        if self._writebehind is None and any_fast is not None \
                and any_fast():
            self._writebehind = WriteBehindIndexer(
                self._apply_writebehind, clock=self.clock,
                interval=self.config.writebehind_interval)
            if getattr(self.kv, "supports_tiering", False):
                self.kv.before_demote = self._writebehind.flush

    def _tenant_policy(self, name: Optional[str]):
        """The tenant policy governing a qualified key/subject name."""
        if self._tenant_policies is None or name is None:
            return None
        return self._tenant_policies.policy_for_key(name)

    def _encrypt_for(self, key: str) -> bool:
        policy = self._tenant_policy(key)
        if policy is not None:
            return policy.encryption_required
        return self.config.encrypt_at_rest

    # -- internal helpers ---------------------------------------------------------

    def _audit_name(self, subject: Optional[str]) -> Optional[str]:
        if subject is None:
            return None
        if self.config.pseudonymize_audit:
            return self.pseudonymizer.pseudonym(subject)
        return subject

    def _record_audit(self, principal: str, operation: str,
                      key: Optional[str], subject: Optional[str],
                      purpose: Optional[str], outcome: str,
                      detail: str = "") -> None:
        # A tenant that switched monitoring off (its own Art. 30
        # trade-off) keeps its interactions out of the chain; resolve
        # off the key when present, else the (qualified) subject.
        policy = self._tenant_policy(key if key is not None else subject)
        if policy is not None and not policy.audit_enabled:
            return
        self.audit.append(principal=principal, operation=operation,
                          key=key, subject=self._audit_name(subject),
                          purpose=purpose, outcome=outcome, detail=detail)

    def _seal(self, key: str, metadata: GDPRMetadata,
              value: bytes) -> bytes:
        envelope = pack_envelope(metadata, value)
        if not self._encrypt_for(key):
            return envelope
        cipher = self.keystore.cipher_for(metadata.owner)
        return cipher.seal(envelope, aad=key.encode("utf-8"))

    def _unseal(self, key: str, owner: str, blob: bytes) -> bytes:
        if not self._encrypt_for(key):
            return blob
        cipher = self.keystore.cipher_for(owner, create=False)
        return cipher.open(blob, aad=key.encode("utf-8"))

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
        self._record_audit("system", f"tier-{event}", None, subject,
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
        self.erasure_events.append(ErasureEvent(
            key=key, subject=metadata.owner, reason=reason,
            erased_at=when, deadline=metadata.expire_at()))
        if reason != "del":
            # Explicit deletes are audited by their caller with the acting
            # principal; TTL reclamation is the system acting on its own.
            self._record_audit("system", "expire-erase", key,
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
        now = self.clock.now()
        try:
            self.access.check(principal, Operation.WRITE, metadata,
                              purpose, now)
        except AccessDeniedError:
            self._record_audit(principal.name, "put", key, metadata.owner,
                               purpose, "denied")
            raise
        if self.config.require_purpose and not metadata.purposes:
            self._record_audit(principal.name, "put", key, metadata.owner,
                               purpose, "error", "no declared purpose")
            raise PurposeViolationError(
                f"record {key!r} declares no processing purpose "
                "(Art. 5 purpose limitation)")
        if metadata.created_at == 0.0:
            metadata = _with_created_at(metadata, now)
        tenant_policy = self._tenant_policy(key)
        if metadata.ttl is None:
            # Storage limitation: derive retention from purpose policies
            # (the tightest bound), else the tenant default, else the
            # store default.
            derived = self.policies.effective_retention(metadata)
            if derived is None and tenant_policy is not None:
                derived = tenant_policy.default_ttl
            if derived is None:
                derived = self.config.default_ttl
            if derived is not None:
                metadata = _with_ttl(metadata, derived)
        self.policies.validate(metadata)
        if tenant_policy is not None and tenant_policy.region is not None \
                and tenant_policy.region != self.config.region:
            # Art. 46 region pin: the tenant's data may only land on
            # nodes inside its pinned region.
            self._record_audit(principal.name, "put", key, metadata.owner,
                               purpose, "denied",
                               f"tenant region pin {tenant_policy.region}")
            raise LocationViolationError(
                f"record {key!r} is pinned to region "
                f"{tenant_policy.region!r} but this node is in "
                f"{self.config.region!r}")
        self.locations.check_placement(metadata, self.config.region)
        blob = self._seal(key, metadata, value)
        deadline = metadata.expire_at()
        use_fast = self._writebehind is not None and (
            tenant_policy.fast_gdpr if tenant_policy is not None
            else self.config.fast_gdpr)
        if use_fast:
            # Fast-GDPR write shape: one fused engine command (SET..PXAT:
            # value + retention deadline in one log record), the sidecar
            # index updated inline (reads check purpose/access against
            # it), and the remaining maintenance deferred to the
            # write-behind flush.  The audit append buffers into the
            # current block -- no fsync here.
            if deadline is None:
                self.kv.execute("SET", key, blob)
            else:
                self.kv.execute("SET", key, blob, "PXAT",
                                int(deadline * 1000))
            self.index.add(key, metadata)
            self._writebehind.enqueue(key, metadata)
            self._record_audit(principal.name, "put", key, metadata.owner,
                               purpose, "ok")
            return
        self.store_record(key, blob, metadata)
        self._record_audit(principal.name, "put", key, metadata.owner,
                           purpose, "ok")

    def store_record(self, key: str, blob: bytes,
                     metadata: GDPRMetadata) -> None:
        """The strict write shape, one engine command per step: ``SET``
        the sealed blob, ``PEXPIREAT`` its retention deadline, index it,
        and annotate the engine's own metadata columns (the relational
        schema; a no-op on the key-value engine, whose metadata lives in
        the sealed envelope plus the sidecar index).  Puts, metadata
        updates and slot migration all write records this way."""
        self.kv.execute("SET", key, blob)
        deadline = metadata.expire_at()
        if deadline is not None:
            self.kv.execute("PEXPIREAT", key, int(deadline * 1000))
        self.index.add(key, metadata)
        self.kv.annotate_metadata([(key, metadata.owner, metadata.purposes)])
        self.locations.record_stored(key, self.config.region)

    def get(self, key: str, principal: Principal = CONTROLLER,
            purpose: Optional[str] = None) -> Record:
        """Read one record, enforcing access control and purpose limits."""
        now = self.clock.now()
        metadata = self.index.get_metadata(key)
        try:
            self.access.check(principal, Operation.READ, metadata,
                              purpose, now)
        except AccessDeniedError:
            self._record_audit(principal.name, "get", key,
                               metadata.owner if metadata else None,
                               purpose, "denied")
            raise
        if purpose is not None and metadata is not None \
                and not metadata.allows_purpose(purpose):
            self._record_audit(principal.name, "get", key, metadata.owner,
                               purpose, "denied", "purpose not permitted")
            raise PurposeViolationError(
                f"purpose {purpose!r} is not permitted for {key!r}")
        blob = self.kv.execute("GET", key)
        if blob is None:
            self._record_audit(principal.name, "get", key,
                               metadata.owner if metadata else None,
                               purpose, "error", "not found")
            raise KeyError(key)
        owner = metadata.owner if metadata else "unknown"
        try:
            envelope = self._unseal(key, owner, blob)
        except (KeyNotFoundError, IntegrityError):
            # Crypto-erased: ciphertext remains but is unreadable forever.
            self._record_audit(principal.name, "get", key, owner,
                               purpose, "error", "crypto-erased")
            raise KeyError(key)
        stored_metadata, value = unpack_envelope(envelope, metadata)
        self._record_audit(principal.name, "get", key,
                           stored_metadata.owner, purpose, "ok")
        return Record(key=key, value=value, metadata=stored_metadata)

    def delete(self, key: str, principal: Principal = CONTROLLER) -> bool:
        """Explicitly erase one record (audited with the acting principal)."""
        now = self.clock.now()
        metadata = self.index.get_metadata(key)
        try:
            self.access.check(principal, Operation.DELETE, metadata,
                              None, now)
        except AccessDeniedError:
            self._record_audit(principal.name, "delete", key,
                               metadata.owner if metadata else None,
                               None, "denied")
            raise
        removed = self.kv.execute("DEL", key)
        self._record_audit(principal.name, "delete", key,
                           metadata.owner if metadata else None,
                           None, "ok" if removed else "error",
                           "" if removed else "not found")
        return bool(removed)

    def update_metadata(self, key: str, metadata: GDPRMetadata,
                        principal: Principal = CONTROLLER) -> None:
        """Control-path change: re-store the record under new metadata."""
        record = self.get(key, principal=principal)
        now = self.clock.now()
        self.access.check(principal, Operation.WRITE, metadata, None, now)
        self.locations.check_placement(metadata, self.config.region)
        self.store_record(key, self._seal(key, metadata, record.value),
                          metadata)
        self._record_audit(principal.name, "update-metadata", key,
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
        cost of purpose-limited processing.
        """
        records = []
        for key in self.index.keys_for_purpose(purpose):
            try:
                records.append(self.get(key, principal=principal,
                                        purpose=purpose))
            except (KeyError, AccessDeniedError, PurposeViolationError):
                continue
        return records

    # -- maintenance -----------------------------------------------------------------

    def tick(self) -> None:
        """Drive background work: store cron + audit group commit.

        On a scheduling clock the audit group commit and the write-behind
        flush also fire as daemon events; this tick is the fallback for
        tick-driven harnesses and non-scheduling clocks."""
        self.kv.tick()
        self.audit.tick(self.clock.now())
        if self._writebehind is not None:
            self._writebehind.maybe_flush(self.clock.now())

    def flush_compliance(self) -> None:
        """Synchronously close the fast-GDPR visibility window: drain the
        write-behind dirty-set and seal + group-commit the audit log.
        After this barrier the store's compliance state is as current as
        strict mode's."""
        if self._writebehind is not None:
            self._writebehind.flush()
        self.audit.sync()

    def sweep_policies(self) -> List[str]:
        """Erase records whose policy-derived retention lapsed.

        Catches records that predate a policy *tightening* (their stored
        TTL is stale); legal holds are respected.  Returns erased keys.
        """
        now = self.clock.now()
        entries = [(key, self.index.get_metadata(key))
                   for key in self.index.keys()]
        overdue = self.policies.overdue(entries, now)
        for key in overdue:
            self.kv.execute("DEL", key)
            self._record_audit("system", "policy-erase", key, None,
                               None, "ok")
        return overdue

    def rebuild_indexes(self) -> int:
        """Rebuild in-memory indexes by scanning the keyspace (restart
        path).  Requires decryptable envelopes; crypto-erased records are
        skipped (and therefore stay unreachable).  The scan goes through
        the engine's :meth:`~repro.engine.base.StorageEngine.scan_records`
        view, so it works over any backend."""
        if self._writebehind is not None:
            self._writebehind.flush()
        entries: List[Tuple[str, GDPRMetadata]] = []
        for key_bytes, blob, *_ in self.kv.scan_records(0):
            if not isinstance(blob, bytes):
                continue
            key = key_bytes.decode("utf-8", "replace")
            if not self.config.encrypt_at_rest:
                try:
                    metadata, _ = unpack_envelope(blob)
                except Exception:
                    continue
                entries.append((key, metadata))
                continue
            recovered = None
            for owner in list(self.keystore.key_ids()):
                try:
                    envelope = self.keystore.cipher_for(
                        owner, create=False).open(blob,
                                                  aad=key.encode("utf-8"))
                    recovered, _ = unpack_envelope(envelope)
                    break
                except Exception:
                    continue
            if recovered is None:
                # Tenants that opted out of encryption store plaintext
                # envelopes even on an encrypting store.
                try:
                    recovered, _ = unpack_envelope(blob)
                except Exception:
                    recovered = None
            if recovered is not None:
                entries.append((key, recovered))
        count = self.index.rebuild(entries)
        for key, metadata in entries:
            self.kv.annotate_metadata(
                [(key, metadata.owner, metadata.purposes)])
            self.locations.record_stored(key, self.config.region)
        return count

    # -- reporting --------------------------------------------------------------------

    def erasure_report(self) -> Dict[str, float]:
        """Timeliness of deletions: the GDPR-level view of Figure 2."""
        with_deadline = [e for e in self.erasure_events
                         if e.lateness is not None]
        if not with_deadline:
            return {"events": float(len(self.erasure_events)),
                    "with_deadline": 0.0, "max_lateness": 0.0,
                    "mean_lateness": 0.0, "sla_breaches": 0.0}
        lateness = [max(e.lateness, 0.0) for e in with_deadline]
        breaches = sum(1 for l in lateness if l > self.config.erasure_sla)
        return {
            "events": float(len(self.erasure_events)),
            "with_deadline": float(len(with_deadline)),
            "max_lateness": max(lateness),
            "mean_lateness": sum(lateness) / len(lateness),
            "sla_breaches": float(breaches),
        }

    def subject_exists(self, subject: str) -> bool:
        return bool(self.keys_of_subject(subject))

    def live_keys_with_prefix(self, prefix: str) -> List[bytes]:
        return self.kv.live_keys_with_prefix(prefix)

    def subject_parts(self, body, subject: str, principal: Principal,
                      arg=None) -> List[Tuple[int, dict]]:
        """``[(0, part)]`` when ``body`` -- a right's per-store half in
        :mod:`repro.gdpr.rights` -- finds ``subject``'s records here,
        else ``[]``: the one part a right merges for a single store."""
        part = body(self, subject, principal, arg)
        return [(0, part)] if part is not None else []


def _with_created_at(metadata: GDPRMetadata, now: float) -> GDPRMetadata:
    import dataclasses
    return dataclasses.replace(metadata, created_at=now)


def _with_ttl(metadata: GDPRMetadata, ttl: float) -> GDPRMetadata:
    import dataclasses
    return dataclasses.replace(metadata, ttl=ttl)
