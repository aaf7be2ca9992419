"""TieredEngine: one keyspace over a hot engine and a cold archive.

The wrapper is itself a :class:`~repro.engine.base.StorageEngine`, so
every upper layer -- :class:`~repro.gdpr.store.GDPRStore`, the cluster,
replication, YCSB -- runs over a tiered keyspace unchanged:

* **Demotion.**  Records idle for ``demote_idle_after`` seconds leave
  the hot engine for a sealed cold segment.  The seal ends with an
  fsync *before* the hot copies are removed (via the engines'
  ``demote_remove`` hook, which logs a DEL to the hot AOF/WAL with
  deletion reason ``"demote"`` but keeps the effective-write stream
  silent -- replicas keep serving their full copy).  A crash between
  the two steps leaves the record in both tiers; the hot copy stays
  authoritative and the stale cold shadow is evicted lazily.
* **Promotion.**  Any keyed command first *surfaces* its key: a cold
  copy is decrypted, re-inserted hot (SET [+ absolute expiry]), and
  tombstoned cold, then the command runs against the hot engine --
  so results, types, TTLs, and errors are exactly the hot engine's.
  Membership is answered from the archive's resident directory; a hit
  reads that one record from the cold device.
* **One keyspace.**  KEYS / SCAN / DBSIZE / ``live_keys`` /
  ``scan_records`` / ``key_count`` merge both tiers; DEL, expiry
  (lazy and active) and FLUSH reach cold copies with the same
  observable events (deletion reasons, write-stream DELs) as hot-only
  operation.  A snapshot is the hot engine's snapshot format with every
  readable cold-only record added to database 0 (owner columns
  included where the hot engine keeps them); loading one restores every
  record hot and empties the archive.
* **Erasure reaches the archive.**  Cold values of a known data
  subject are sealed under that subject's key from the shared
  :class:`~repro.crypto.keystore.KeyStore`; ``erase_subject_cold``
  records which segments the erasure voided (bloom-answered), drops
  the subject's keys from the resident directory and appends a durable
  subject marker, so Art. 17 voids the archive without rewriting a
  single segment.

Tiering applies to database 0 only (the database the GDPR, cluster,
and bench layers use); commands on other databases pass straight
through.  Only string (bytes) values demote; containers stay hot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..device.append_log import AppendLog
from ..engine.base import SnapshotImage, StorageEngine, StoredRecord
from ..kvstore.commands import glob_match, normalize_args, spec_of
from .segment import ColdEntry, ColdInput, ColdSegmentStore

#: (event, detail, subject) -- demote / promote / cold-erase; the GDPR
#: layer subscribes and turns these into audit records.
TierListener = Callable[[str, str, Optional[str]], None]


@dataclass
class TieringConfig:
    """Knobs of the hot/cold split."""

    demote_idle_after: float = 300.0   # seconds untouched before demotion
    demote_interval: float = 60.0      # how often the idle scan runs
    segment_max_records: int = 64      # records per sealed segment
    bloom_fp_rate: float = 0.01        # per-segment bloom FP bound
    auto_demote: bool = True           # run the idle scan from tick()


class TieredEngine(StorageEngine):
    """A hot :class:`StorageEngine` plus a :class:`ColdSegmentStore`,
    presented as one engine."""

    engine_name = "tiered"
    supports_tiering = True

    def __init__(self, inner: StorageEngine,
                 device: Optional[AppendLog] = None,
                 tiering: Optional[TieringConfig] = None,
                 keystore: Optional[object] = None) -> None:
        super().__init__()
        self._inner = inner
        self.tiering = tiering if tiering is not None else TieringConfig()
        if device is None:
            device = AppendLog(clock=inner.clock, name="cold.seg")
        self.cold = ColdSegmentStore(
            device=device, keystore=keystore,
            fp_rate=self.tiering.bloom_fp_rate)
        # key -> (owner, purposes): GDPR annotations survive the tier
        # round-trip -- sealing reads the owner (per-subject encryption),
        # promotion restores the metadata columns the hot re-insert
        # would otherwise lose.
        self._owners: Dict[bytes, Tuple[str, Tuple[str, ...]]] = {}
        self._last_touch: Dict[bytes, float] = {}
        self._last_demote_scan = inner.clock.now()
        self._in_cold_tick = False
        self.promotions = 0
        self.demotions = 0
        self._tier_listeners: List[TierListener] = []
        #: Called before each demotion batch is selected; the GDPR layer
        #: points this at its write-behind flush so no deferred TTL /
        #: metadata work is pending on a record entering the archive.
        self.before_demote: Optional[Callable[[], None]] = None
        inner.add_write_listener(self.notify_write)
        inner.add_deletion_listener(self._on_inner_deletion)

    # -- delegated attributes ------------------------------------------------

    @property
    def inner(self) -> StorageEngine:
        return self._inner

    @property
    def clock(self):
        return self._inner.clock

    @property
    def config(self):
        return self._inner.config

    @property
    def stats(self):
        return self._inner.stats

    @property
    def monitor(self):
        return self._inner.monitor

    @property
    def aof(self):
        return self._inner.aof

    @property
    def aof_log(self):
        return self._inner.aof_log

    @property
    def database_count(self) -> int:  # type: ignore[override]
        return self._inner.database_count

    @property
    def supports_metadata_columns(self) -> bool:  # type: ignore[override]
        return self._inner.supports_metadata_columns

    @property
    def supports_set_with_expiry(self) -> bool:  # type: ignore[override]
        return self._inner.supports_set_with_expiry

    def info_text(self) -> str:
        return self._inner.info_text()

    # -- tier listeners ------------------------------------------------------

    def add_tier_listener(self, listener: TierListener) -> None:
        self._tier_listeners.append(listener)

    def _tier_event(self, event: str, detail: str,
                    subject: Optional[str] = None) -> None:
        for listener in self._tier_listeners:
            listener(event, detail, subject)

    def attach_keystore(self, keystore: object) -> None:
        """Bind the per-subject keystore (the GDPR layer calls this so
        demoted values seal under their subject's key)."""
        self.cold.attach_keystore(keystore)

    # -- inner event forwarding ----------------------------------------------

    def _on_inner_deletion(self, db_index: int, key: bytes, reason: str,
                           when: float) -> None:
        if db_index == 0 and reason != "demote" and not self._loading:
            # Any true hot removal (DEL, lazy/active expiry) must also
            # kill every archived copy of the key -- durably.  Even a
            # copy the archive already considers dead may only be
            # covered by a non-durable tombstone (promote eviction),
            # which power loss revokes; without a durable marker here,
            # AOF replay (which skips evictions) would resurrect the
            # deleted key from the archive.
            self.cold.tombstone_key(key, durable=True)
            self._owners.pop(key, None)
            self._last_touch.pop(key, None)
        self.notify_deletion(db_index, key, reason, when)

    # -- command surface -----------------------------------------------------

    def execute(self, *args: Any, session: Optional[Any] = None) -> Any:
        argv = normalize_args(args)
        if not argv:
            raise ValueError("empty command")
        if session is not None and getattr(session, "db_index", 0) != 0:
            return self._inner.execute(*argv, session=session)
        name = argv[0].upper()
        reply = self._execute_tiered(name, argv, session)
        self._cold_tick()
        return reply

    def _execute_tiered(self, name: bytes, argv: List[bytes],
                        session: Optional[Any]) -> Any:
        if name in (b"DEL", b"UNLINK"):
            return self._del_across_tiers(argv, session)
        if name == b"KEYS":
            return self._keys_merged(argv, session)
        if name == b"DBSIZE":
            return self._dbsize_merged(argv, session)
        if name == b"SCAN":
            return self._scan_merged(argv, session)
        if name in (b"FLUSHALL", b"FLUSHDB"):
            if self.cold.segment_count:
                self.cold.clear()
            self._owners.clear()
            self._last_touch.clear()
        elif name == b"RENAME" and len(argv) >= 3:
            self._surface(argv[1])
            self._evict_shadow(argv[2])
            self._touch(argv[1])
            self._touch(argv[2])
        elif name in (b"MSET", b"SETEX", b"PSETEX"):
            # Unconditional full overwrites: the cold copies just die.
            for key in spec_of(name).keys(argv):
                self._evict_shadow(key)
                self._touch(key)
        elif name == b"SET" and len(argv) >= 3:
            conditional = any(argv[i].upper() in (b"NX", b"XX")
                              for i in range(3, len(argv)))
            if conditional:
                self._surface(argv[1])
            else:
                self._evict_shadow(argv[1])
            self._touch(argv[1])
        else:
            for key in spec_of(name).keys(argv):
                self._surface(key)
                self._touch(key)
        return self._inner.execute(*argv, session=session)

    def _touch(self, key: bytes) -> None:
        self._last_touch[key] = self.clock.now()

    def _evict_shadow(self, key: bytes) -> None:
        """Silently drop a cold copy that is about to be overwritten or
        is shadowed by a live hot copy (no deletion event: the key stays
        logically alive)."""
        self.cold.tombstone_key(key, durable=False)

    def _surface(self, key: bytes) -> None:
        """Reconcile ``key`` before a command touches it: promote a live
        cold copy into the hot engine (or reclaim it if expired /
        crypto-erased), so the inner engine's answer is the tiered
        answer."""
        slot = self.cold.slot_of(key)
        if slot is None:
            return
        if self._inner.has_live_key(key, 0):
            # Crash-window duplicate: hot is authoritative.
            self.cold.tombstone_key(key, durable=False)
            return
        now = self.clock.now()
        if slot.expire_at is not None and slot.expire_at <= now:
            # Cold lazy expiry: same observable events as a hot lazy
            # expiration (deletion reason + write-stream DEL); the hot
            # AOF already holds the demotion DEL, and the cold tombstone
            # is the archive's durable record of the reclaim.
            self.cold.tombstone_key(key, durable=True)
            self.stats.expired_keys += 1
            self.notify_deletion(0, key, "lazy-expire", now)
            self.notify_write(0, [b"DEL", key])
            self._owners.pop(key, None)
            return
        entry = self.cold.lookup(key)
        value = self.cold.open_value(entry) if entry is not None else None
        if value is None:
            # Crypto-erased (or unreadable, which the archive treats as
            # erased): the copy is void; drop it silently.
            self.cold.tombstone_key(key, durable=True)
            return
        self._promote(entry, value)

    def _promote(self, entry: ColdEntry, value: bytes) -> None:
        key = entry.key
        self._inner.promote_insert(key, value, entry.expire_at)
        annotation = self._owners.get(key)
        owner = entry.owner if entry.owner is not None \
            else (annotation[0] if annotation else None)
        if owner is not None and self.supports_metadata_columns:
            purposes = annotation[1] \
                if annotation and annotation[0] == owner else ()
            self._inner.annotate_metadata(
                key.decode("utf-8", "replace"), owner, purposes)
        self.cold.tombstone_key(key, durable=False)
        self.promotions += 1
        self._tier_event("promote",
                         f"key {key.decode('utf-8', 'replace')} "
                         f"from segment {entry.seq}",
                         entry.owner)

    # -- cross-tier command implementations ----------------------------------

    def _del_across_tiers(self, argv: List[bytes],
                          session: Optional[Any]) -> int:
        # Identify cold-only victims BEFORE the hot deletes run (the
        # inner-deletion forwarder evicts crash-window shadows itself).
        cold_victims: List[bytes] = []
        seen = set()
        for key in argv[1:]:
            if key in seen:
                continue
            seen.add(key)
            if self._inner.has_live_key(key, 0):
                continue
            if self.cold.slot_of(key) is not None:
                cold_victims.append(key)
        removed = self._inner.execute(*argv, session=session)
        now = self.clock.now()
        for key in cold_victims:
            # Expired-but-unreclaimed copies count, matching the hot
            # engines' DEL semantics.
            self.cold.tombstone_key(key, durable=True)
            self.stats.deleted_keys += 1
            self.notify_deletion(0, key, "del", now)
            self.notify_write(0, [b"DEL", key])
            self._owners.pop(key, None)
            self._last_touch.pop(key, None)
            removed += 1
        return removed

    def _cold_live_keys(self, now: float) -> List[bytes]:
        """Cold keys a hot-only engine would report as live: not dead,
        not erased, not expired, and not shadowed by a hot copy."""
        return [key for key in self.cold.live_keys(now)
                if not self._inner.has_live_key(key, 0)]

    def _keys_merged(self, argv: List[bytes],
                     session: Optional[Any]) -> List[bytes]:
        reply = self._inner.execute(*argv, session=session)
        pattern = argv[1] if len(argv) > 1 else b"*"
        extras = [key for key in self._cold_live_keys(self.clock.now())
                  if glob_match(pattern, key)]
        return list(reply) + sorted(extras)

    def _dbsize_merged(self, argv: List[bytes],
                       session: Optional[Any]) -> int:
        # An expired cold copy is never "unreclaimed": like KEYS and
        # SCAN, the count stops serving it at its deadline, judged at
        # the command's start as the hot engine judges its own keys.
        now = self.clock.now()
        reply = self._inner.execute(*argv, session=session)
        return reply + len(self._cold_live_keys(now))

    def _scan_merged(self, argv: List[bytes], session: Optional[Any]) -> Any:
        reply = self._inner.execute(*argv, session=session)
        cursor, keys = reply[0], list(reply[1])
        if cursor != b"0":
            return [cursor, keys]
        pattern = b"*"
        i = 2
        while i + 1 < len(argv):
            if argv[i].upper() == b"MATCH":
                pattern = argv[i + 1]
            i += 2
        extras = [key for key in self._cold_live_keys(self.clock.now())
                  if glob_match(pattern, key) and key not in keys]
        return [cursor, keys + sorted(extras)]

    # -- background work -----------------------------------------------------

    def tick(self) -> None:
        self._inner.tick()
        self._cold_tick()

    def _cold_tick(self) -> None:
        if self._in_cold_tick:
            return
        self._in_cold_tick = True
        try:
            now = self.clock.now()
            for key in self.cold.pop_expired(now):
                self.cold.tombstone_key(key, durable=True)
                self.stats.expired_keys += 1
                self.notify_deletion(0, key, "active-expire", now)
                self.notify_write(0, [b"DEL", key])
                self._owners.pop(key, None)
            if self.tiering.auto_demote \
                    and now - self._last_demote_scan \
                    >= self.tiering.demote_interval:
                self._last_demote_scan = now
                self.demote_idle(now)
        finally:
            self._in_cold_tick = False

    # -- demotion ------------------------------------------------------------

    def demote_idle(self, now: Optional[float] = None) -> int:
        """Demote every string record untouched for
        ``demote_idle_after`` seconds; returns records demoted."""
        if now is None:
            now = self.clock.now()
        if self.before_demote is not None:
            self.before_demote()
        candidates: List[StoredRecord] = []
        for record in self._inner.scan_records(0):
            if not isinstance(record.value, bytes):
                continue  # containers stay hot
            if record.expire_at is not None and record.expire_at <= now:
                continue  # let hot expiry reclaim it
            touched = self._last_touch.get(record.key)
            if touched is None:
                # First sighting: start its idle clock now.
                self._last_touch[record.key] = now
                continue
            if now - touched >= self.tiering.demote_idle_after:
                candidates.append(record)
        candidates.sort(key=lambda r: r.key)
        step = max(1, self.tiering.segment_max_records)
        for start in range(0, len(candidates), step):
            self._demote_batch(candidates[start:start + step])
        return len(candidates)

    def demote_keys(self, keys: List[bytes]) -> int:
        """Explicitly demote specific keys (bench / test control path);
        returns records demoted."""
        targets = {k if isinstance(k, bytes) else str(k).encode("utf-8")
                   for k in keys}
        if self.before_demote is not None:
            self.before_demote()
        now = self.clock.now()
        records = [r for r in self._inner.scan_records(0)
                   if r.key in targets and isinstance(r.value, bytes)
                   and (r.expire_at is None or r.expire_at > now)]
        records.sort(key=lambda r: r.key)
        step = max(1, self.tiering.segment_max_records)
        for start in range(0, len(records), step):
            self._demote_batch(records[start:start + step])
        return len(records)

    def _demote_batch(self, records: List[StoredRecord]) -> None:
        if not records:
            return
        inputs = []
        for r in records:
            annotation = self._owners.get(r.key)
            inputs.append(ColdInput(r.key, r.value, r.expire_at,
                                    annotation[0] if annotation else None))
        seq = self.cold.seal(inputs, sealed_at=self.clock.now())
        # The seal above ended with an fsync: only now is it safe to
        # drop the hot copies.
        for record in records:
            self._inner.demote_remove(record.key, 0)
            self._last_touch.pop(record.key, None)
        self.demotions += len(records)
        self._tier_event("demote",
                         f"{len(records)} records -> segment {seq}")

    # -- archive-reaching erasure --------------------------------------------

    def erase_subject_cold(self, subject: str) -> int:
        """Void every archived copy of ``subject``'s records; returns
        the number of segments the erasure reached (bloom-answered)."""
        touched = self.cold.erase_subject(subject)
        self._owners = {k: ann for k, ann in self._owners.items()
                        if ann[0] != subject}
        self._tier_event("cold-erase",
                         f"{len(touched)} segments voided", subject)
        return len(touched)

    def cold_segments_of_subject(self, subject: str) -> List[int]:
        return self.cold.segments_of_subject(subject)

    def cold_keys_of_subject(self, subject: str) -> List[bytes]:
        return self.cold.keys_of_subject(subject)

    # -- keyspace views ------------------------------------------------------

    def live_keys(self, db_index: int = 0) -> List[bytes]:
        hot = self._inner.live_keys(db_index)
        if db_index != 0:
            return hot
        return hot + sorted(self._cold_live_keys(self.clock.now()))

    def has_live_key(self, key: bytes, db_index: int = 0) -> bool:
        if self._inner.has_live_key(key, db_index):
            return True
        if db_index != 0:
            return False
        slot = self.cold.slot_of(key)
        if slot is None:
            return False
        return slot.expire_at is None or slot.expire_at > self.clock.now()

    def scan_records(self, db_index: int = 0) -> Iterator[StoredRecord]:
        for record in self._inner.scan_records(db_index):
            yield record
        if db_index != 0:
            return
        yield from self._cold_records(self.clock.now())

    def _cold_records(self, now: Optional[float] = None
                      ) -> Iterator[StoredRecord]:
        """Every readable cold-only record, in key order: one device
        read per record."""
        for key in sorted(self.cold.live_keys(now)):
            if self._inner.has_live_key(key, 0):
                continue
            entry = self.cold.lookup(key)
            value = self.cold.open_value(entry) if entry is not None else None
            if value is None:
                continue  # crypto-erased: stays unreachable
            yield StoredRecord(key, value, entry.expire_at)

    def key_count(self, db_index: int = 0) -> int:
        count = self._inner.key_count(db_index)
        if db_index != 0:
            return count
        cold = self.cold.live_keys()
        overlap = sum(1 for key in cold if self._inner.has_live_key(key, 0))
        return count + len(cold) - overlap

    # -- durability ----------------------------------------------------------

    def snapshot_records(self) -> SnapshotImage:
        """The hot engine's records plus every readable cold-only record
        in database 0, with its owner columns where the hot engine keeps
        such columns."""
        databases = self._inner.snapshot_records()
        databases[0] = chain(databases.get(0, ()), self._cold_snapshot())
        return databases

    def _cold_snapshot(self) -> Iterator[StoredRecord]:
        columns = self.supports_metadata_columns
        for record in self._cold_records():
            annotation = self._owners.get(record.key) if columns else None
            if annotation is not None:
                record = record._replace(metadata=(
                    annotation[0], ",".join(sorted(annotation[1]))))
            yield record

    def restore_records(self, databases: SnapshotImage) -> None:
        """Every record re-enters the hot engine and the archive starts
        empty; the idle scan re-tiers what stays untouched."""
        self._inner.restore_records(databases)
        if self.cold.segment_count:
            self.cold.clear()
        self._owners = {
            record.key: (record.metadata[0],
                         tuple(filter(None, record.metadata[1].split(","))))
            for record in databases.get(0, ())
            if record.metadata is not None}
        self._last_touch.clear()

    def replay_aof(self, data: Optional[bytes] = None,
                   tolerate_truncated_tail: bool = True) -> int:
        # The hot AOF holds a plain DEL for every demotion; replaying it
        # must not evict the archived copies those DELs produced.  Every
        # *legitimate* cold kill (DEL, expiry, erasure) was persisted as
        # its own durable frame on the cold device at operation time, so
        # recovery needs no eviction from the replay stream at all.
        self._loading = True
        try:
            return self._inner.replay_aof(
                data, tolerate_truncated_tail=tolerate_truncated_tail)
        finally:
            self._loading = False

    def rewrite_aof(self) -> int:
        return self._inner.rewrite_aof()

    # -- replication ---------------------------------------------------------

    def spawn_replica(self, clock: Optional[Any] = None) -> "TieredEngine":
        inner_replica = self._inner.spawn_replica(clock)
        return TieredEngine(
            inner_replica,
            device=AppendLog(clock=inner_replica.clock, name="cold.seg"),
            tiering=replace(self.tiering, auto_demote=False),
            keystore=self.cold.keystore)

    # -- GDPR metadata hooks -------------------------------------------------

    def annotate_metadata(self, key: str, owner: str,
                          purposes: Any) -> None:
        key_bytes = key.encode("utf-8") if isinstance(key, str) else key
        self._owners[key_bytes] = (owner, tuple(purposes))
        if self._inner.has_live_key(key_bytes, 0):
            self._inner.annotate_metadata(key, owner, purposes)

    def keys_of_owner(self, owner: str) -> Optional[List[str]]:
        native = self._inner.keys_of_owner(owner)
        if native is None:
            # Sidecar-index engines: the GDPR layer's index keeps
            # demoted keys (demotion is a tier move, not an erasure),
            # so it remains the single source of truth.
            return None
        merged = set(native)
        for key in self.cold.keys_of_subject(owner):
            if not self._inner.has_live_key(key, 0):
                merged.add(key.decode("utf-8", "replace"))
        return sorted(merged)

    # -- introspection -------------------------------------------------------

    def memory_footprint(self) -> Dict[str, int]:
        """Resident bytes per tier -- the number the tiering bench
        compares against hot-only operation."""
        hot_bytes = 0
        hot_keys = 0
        for record in self._inner.scan_records(0):
            hot_keys += 1
            hot_bytes += len(record.key)
            if isinstance(record.value, bytes):
                hot_bytes += len(record.value)
        return {
            "hot_keys": hot_keys,
            "hot_bytes": hot_bytes,
            "cold_keys": self.cold.live_count(),
            "cold_resident_bytes": self.cold.resident_bytes(),
            "cold_device_bytes": self.cold.device.total_length,
        }

    def cold_stats(self) -> Dict[str, int]:
        stats = self.cold.stats()
        stats["promotions"] = self.promotions
        stats["demotions"] = self.demotions
        return stats
