"""The storage-engine interface every upper layer programs against.

The paper's central experiment runs the *same* GDPR feature set over two
different storage systems -- a Redis-like key-value store and PostgreSQL
-- and compares what compliance costs each.  Making that comparison
reproducible end-to-end means the GDPR layer, the RESP servers, the
cluster (sharding, migration, replication), and the YCSB adapters must
not care which engine they sit on.  :class:`StorageEngine` is that seam.

An engine owns a keyspace and speaks the command vocabulary (``execute``
takes Redis-shaped argv; the relational engine translates each command
into a prepared SQL statement internally).  Around the commands, the
interface pins down the observation and durability seams the stack is
built on:

* **One command pipeline** (:meth:`execute`) -- written once, here:
  the one command table (:mod:`repro.kvstore.commands`) classifies the
  name and checks its arity, the engine's ``_HANDLERS`` table names its
  handler and :meth:`_run` runs it, then the command is counted,
  published to MONITOR and logged (neither for a tier's cache fill,
  :meth:`promote_insert`, which no client sent; never control traffic
  in the log; an effective write in its replay-safe form,
  :meth:`_log_records` over the engine's :meth:`_deadline_of`), fed to
  the write stream, and the engine ticks.
* **Write-stream taps** (:meth:`add_write_listener`) -- the effective,
  post-translation write stream (expirations travel as DELs, a value
  and its deadline as one absolute ``SET..PXAT`` record).  Replication
  links and slot migrators subscribe here.
* **Deletion taps** (:meth:`add_deletion_listener`) -- every key removal
  with its reason (``del`` / ``lazy-expire`` / ``active-expire``).  The
  GDPR layer timestamps erasures off this; migrators cascade deletes.
* **Keyspace views** (:meth:`live_keys`, :meth:`has_live_key`,
  :meth:`scan_records`, :meth:`key_count`) -- expiry-aware reads of the
  keyspace that never mutate it.  Slot-aware servers, migrators, and the
  GDPR index rebuild use these instead of poking engine internals.
* **Durability hooks** (:attr:`aof` / :attr:`aof_log`,
  :meth:`replay_aof`, :meth:`rewrite_aof`, :meth:`records_of`) -- one
  durable command log per engine, whether it is a Redis AOF or a
  relational WAL: one :class:`~repro.kvstore.aof.AofWriter` named
  ``aof``, so erasure residual checks, crash recovery and per-core
  fsync billing work identically on every engine.  Log replay, log
  compaction and the DELs an engine logs on its own initiative (expiry,
  tier demotion) are written once, here: compaction encodes the records
  an engine hands out (:meth:`snapshot_records`; :meth:`records_of` for
  a rewrite of some of the log's parts), and so does every whole copy
  of the keyspace -- a full sync, a backup generation -- which
  is the log's compacted form (:func:`repro.kvstore.aof.image`), taken
  back by :meth:`replay_aof`.  An engine removes a key through
  :meth:`_remove_key`.
* **Replica spawning** (:meth:`spawn_replica`) -- a fresh, zero-cost
  same-engine store for replication defaults, so a relational primary
  gets relational replicas without the replication layer knowing.
* **Metadata-column hooks** (:meth:`annotate_metadata`,
  :meth:`keys_of_owner`) -- the paper's schema split: the relational
  engine stores GDPR metadata as extra *indexed columns* and can answer
  owner queries natively; the key-value engine keeps the sidecar
  metadata index, so the base implementations are no-ops.

Costs stay engine-specific: each engine charges its own CPU, device,
and log costs to the clock it was built on, which is what makes the
``backends`` bench scenario's per-feature comparison meaningful.
"""

from __future__ import annotations

from math import ceil
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..common.errors import PersistenceError, UnknownCommandError

DeletionListener = Callable[[int, bytes, str, float], None]
# (db_index, translated argv) for every effective write -- the stream a
# replica applies.  Commands arrive post-translation (absolute
# deadlines, DELs for expirations) so replicas converge deterministically.
WriteListener = Callable[[int, List[bytes]], None]
#: One key's GDPR metadata columns: ``(key, owner, purposes)``.
MetadataRow = Tuple[str, str, Iterable[str]]

_EXPIRE_FAMILY = frozenset((b"EXPIRE", b"PEXPIRE", b"EXPIREAT", b"PEXPIREAT"))
#: The commands whose logged form may differ from their argv (SET too,
#: when it carries options); see :meth:`StorageEngine._log_records`.
_TRANSLATED = _EXPIRE_FAMILY | {b"RESTORE"}
#: Effective writes a log split into parts records as a rewrite of the
#: keyspace they leave, not as a command (see
#: :meth:`StorageEngine.rewrite_aof`); an unsplit log records them as
#: any other command.
_KEYLESS_WRITES = frozenset((b"FLUSHALL", b"FLUSHDB"))

#: Background cycles per simulated second (Redis ``hz``): how often an
#: engine's :meth:`StorageEngine.tick` runs its expiry cycle or vacuum
#: and a server's cron timer fires.
HZ = 10


class StoredRecord(NamedTuple):
    """One keyspace entry: the key, the engine-native value, the
    absolute expiry deadline (seconds on the engine's clock), if any,
    and the GDPR metadata columns ``(owner, purposes)`` where the engine
    keeps them.  :meth:`StorageEngine.scan_records` yields live entries
    without metadata; :meth:`StorageEngine.snapshot_records` carries
    it."""

    key: bytes
    value: Any
    expire_at: Optional[float]
    metadata: Optional[Tuple[str, str]] = None


#: database index -> that database's records (each database's a
#: one-pass iterable), as :meth:`StorageEngine.snapshot_records` hands
#: them out.
SnapshotImage = Dict[int, Iterable[StoredRecord]]


class EngineStats:
    """Counters every engine maintains (the INFO-style view)."""

    def __init__(self) -> None:
        self.commands_processed = 0
        self.expired_keys = 0
        self.deleted_keys = 0
        self.keyspace_hits = 0
        self.keyspace_misses = 0
        self.commands_replayed = 0


class StorageEngine:
    """Abstract base for storage backends.

    Subclasses must provide the attributes ``clock``, ``config``,
    ``stats``, ``monitor``, ``aof`` (the :class:`AofWriter` of the
    durable command log, or None when durability is off) and
    ``aof_log`` (that writer's device), plus ``rewrites_completed``
    where they log, in addition to the abstract
    methods below.  Listener management is implemented here so every
    engine shares one subscription semantics.
    """

    #: Registry name ("redislike", "relational", ...).
    engine_name: str = "abstract"

    #: True when the engine stores GDPR metadata as indexed columns
    #: (the relational schema approach); the GDPR layer then prefers
    #: :meth:`keys_of_owner` over its sidecar index for owner queries.
    supports_metadata_columns: bool = False

    #: True when the engine is a tiering layer (a hot engine plus a cold
    #: segment archive presenting one keyspace).  The GDPR layer then
    #: attaches its keystore (so demoted values seal under per-subject
    #: keys), audits tier events, and extends Art. 17 to the archive via
    #: ``erase_subject_cold``.
    supports_tiering: bool = False

    #: The device of the tiering wrapper's cold archive (a plain engine
    #: has none): :meth:`reopen` restarts the archive over it.
    cold_device: Optional[Any] = None

    #: Numbered databases the keyspace has (derived from the engine's
    #: structure, never configured here): a compacted log selects
    #: databases only when there is more than one.
    database_count: int = 1

    def __init__(self) -> None:
        self.deletion_listeners: List[DeletionListener] = []
        self.write_listeners: List[WriteListener] = []
        # True while replaying the durable log: replayed commands are
        # neither logged again nor fed to the write stream.
        self._loading = False
        # True while a tier promotion fills a record in: the fill is
        # neither logged nor fed to the write stream, and the periodic
        # maintenance cycle waits for the client command's own tick.
        self._promoting = False
        # Records taken before a write ran, logged ahead of its own
        # record once the engine accepts it (:meth:`hold_bases`).
        self._bases: Optional[list] = None
        self._default_session = Session()

    # -- command surface ---------------------------------------------------

    #: Upper-cased command name -> this engine's handler, as
    #: :meth:`_run` calls it.  Every name is in the one command table.
    _HANDLERS: Dict[bytes, Callable] = {}

    def execute(self, *args: Any, session: Optional[Any] = None) -> Any:
        """Execute one command; raises on protocol/type errors.

        Accepts str/bytes/int/float arguments for convenience; everything
        is normalized to bytes before dispatch, as over the wire.  The
        command table says how the command classifies and how many
        arguments it takes; the engine's :meth:`_run` runs its handler.
        An effective write (a write command whose handler marked the
        context dirty) reaches the log as a write and the write stream
        in its replay-safe form (:meth:`_log_records`); anything else
        but control traffic reaches the log as a read.
        """
        argv = normalize_args(args)
        if not argv:
            raise ValueError("empty command")
        name = argv[0].upper()
        spec = REGISTRY.get(name, UNKNOWN)
        handler = self._HANDLERS.get(name)
        if handler is None:
            raise UnknownCommandError(
                f"ERR unknown command '{argv[0].decode('utf-8', 'replace')}'")
        spec.check_arity(len(argv))
        if session is None:
            session = self._default_session
        ctx = CommandContext(self, session, self.clock.now())
        reply = self._run(handler, ctx, argv)
        self.stats.commands_processed += 1
        db_index = session.db_index
        if self._promoting:     # a tier's cache fill: no client sent it
            self.tick()
            return reply
        self.monitor.publish(ctx.now, db_index, argv)
        if not spec.routing.control and not self._loading:
            effective_write = spec.write and ctx.dirty > 0
            if effective_write and (name in _TRANSLATED or (
                    name == b"SET" and len(argv) > 3)):
                records = self._log_records(name, argv, db_index)
            else:
                records = (argv,)
            aof = self.aof
            if aof is not None:
                if effective_write and name in _KEYLESS_WRITES \
                        and aof.split:
                    # A keyless barrier no single part of the log could
                    # order: logged as the keyspace it left.
                    self.rewrite_aof()
                else:
                    if self._bases:
                        for base in self._bases:
                            aof.feed_laid(*base)
                        self._bases = None
                    for record in records:
                        aof.feed_command(db_index, record,
                                         is_write=effective_write)
                    aof.post_command()
            if effective_write and self.write_listeners:
                for record in records:
                    self.notify_write(db_index, record)
        self.tick()
        return reply

    def _run(self, handler: Callable, ctx: Any, argv: List[bytes]) -> Any:
        """Run one command's handler and return its reply: the engine's
        own per-command step (CPU charge, session checks, slowlog)."""
        raise NotImplementedError

    def _log_records(self, name: bytes, argv: List[bytes],
                     db_index: int) -> List[List[bytes]]:
        """The logged form of an effective write whose argv would not
        replay to the same state later.

        A record and its deadline are one log record: a ``SET`` with a
        deadline (relative or absolute) logs as ``SET key value PXAT
        ms`` and a ``RESTORE`` with one as ``RESTORE key ms payload
        REPLACE ABSTTL``, so a replay -- or a replica -- never holds the
        value without its deadline, and a replay at a later time keeps
        the deadline instead of restarting it.  An EXPIRE-family
        command logs as an absolute ``PEXPIREAT``, as Redis does.  A
        deadline already past deleted the key, so it is logged as a DEL.
        """
        key = argv[1]
        expire_at = self._deadline_of(db_index, key)
        millis = None
        if expire_at is not None:
            # deadline_ms's rounding, inline on this per-write path: the
            # largest m with m / 1000 <= expire_at, so a deadline set as
            # PXAT m logs as m, never m - 1.
            whole = int(expire_at * 1000)
            millis = b"%d" % (whole + ((whole + 1) / 1000 <= expire_at))
        if name in _EXPIRE_FAMILY:
            if millis is None:
                return [[b"DEL", key]]
            return [[b"PEXPIREAT", key, millis]]
        if millis is None and not self.has_live_key(key, db_index):
            return [[b"DEL", key]]          # replaced by a past deadline
        if name == b"RESTORE":
            if millis is None:
                return [[b"RESTORE", key, b"0", argv[3], b"REPLACE"]]
            return [[b"RESTORE", key, millis, argv[3], b"REPLACE",
                     b"ABSTTL"]]
        if millis is None:                  # SET with options
            return [[b"SET", key, argv[2]]]
        return [[b"SET", key, argv[2], b"PXAT", millis]]

    def _deadline_of(self, db_index: int, key: bytes) -> Optional[float]:
        """The absolute expiry deadline ``key`` holds, or None when it
        has none or is gone."""
        raise NotImplementedError

    def session(self, db_index: int = 0) -> Any:
        """A fresh client session (its own SELECTed database)."""
        return Session(db_index)

    def tick(self) -> None:
        """Run due background work (expiry cycles, vacuum).  A log's
        everysec fsync is not among it: it runs on its device's timer."""
        raise NotImplementedError

    # -- keyspace views (expiry-aware, never mutating) ---------------------

    def live_keys(self, db_index: int = 0) -> List[bytes]:
        """Every non-expired key, in the engine's natural order."""
        raise NotImplementedError

    def has_live_key(self, key: bytes, db_index: int = 0) -> bool:
        """Does the keyspace currently serve ``key``?  (No lazy-expire
        side effects: a pure visibility probe.)"""
        raise NotImplementedError

    def scan_records(self, db_index: int = 0) -> Iterator[StoredRecord]:
        """Iterate live records -- the restart/index-rebuild path."""
        raise NotImplementedError

    def key_count(self, db_index: int = 0) -> int:
        """Number of keys (expired-but-unreclaimed entries included,
        matching DBSIZE semantics on both engines)."""
        raise NotImplementedError

    # -- namespaced keyspace views (tenancy) -------------------------------
    #
    # Shared prefix-filtered views over the abstract keyspace: the
    # tenancy layer scopes KEYS/SCAN/DBSIZE and footprint audits to one
    # tenant's ``tenant/`` namespace through these, so every engine
    # (and the tiered wrapper) gets tenant-scoped views for free.
    # Engines with a sorted keyspace index may override with a range
    # scan.

    def live_keys_with_prefix(self, prefix: str,
                              db_index: int = 0) -> List[bytes]:
        """Every non-expired key inside ``prefix``'s namespace."""
        needle = prefix.encode("utf-8")
        return [key for key in self.live_keys(db_index)
                if key.startswith(needle)]

    # -- durability --------------------------------------------------------

    def snapshot_records(self) -> SnapshotImage:
        """Every record of the keyspace, expired-but-unreclaimed ones
        included, with its metadata columns, in the engine's key order
        (each database's records a one-pass iterable, possibly empty)."""
        raise NotImplementedError

    def replay_aof(self, data: Optional[bytes] = None,
                   tolerate_truncated_tail: bool = True) -> int:
        """Rebuild state from the durable command log (AOF or WAL; by
        default the attached log's durable content, every part of it).
        Returns the number of commands replayed."""
        return self.replay(self.logged_commands(data, tolerate_truncated_tail))

    def logged_commands(self, data: Optional[bytes] = None,
                        tolerate_truncated_tail: bool = True
                        ) -> List[List[bytes]]:
        """The commands :meth:`replay_aof` replays from ``data`` (by
        default the attached log's durable content), decoded."""
        from ..kvstore.aof import replay_commands
        if data is None:
            if self.aof is None:
                raise PersistenceError(
                    f"the {self.engine_name} engine has no durable log")
            data = self.aof.read_durable()
        return replay_commands(
            data, tolerate_truncated_tail=tolerate_truncated_tail)

    def replay(self, commands: Sequence[List[bytes]]) -> int:
        """Run decoded log ``commands`` as a replay: nothing is logged
        again or fed to the write stream.  Returns how many ran."""
        session = self.session()
        self._loading = True
        try:
            for argv in commands:
                self.execute(*argv, session=session)
        finally:
            self._loading = False
        self.stats.commands_replayed += len(commands)
        return len(commands)

    def reopen(self, clock: Optional[Any] = None) -> "StorageEngine":
        """This engine restarted, as its process would be after a crash:
        :meth:`stop`, then :meth:`restarted` over its own devices -- its
        durable log replayed (every part of it) and, behind the tiering
        wrapper, its cold archive recovered from its device.  Drop the
        old engine: it shares the devices."""
        self.stop(clock)
        return self.restarted(self.aof_log, self.cold_device, clock)

    def stop(self, clock: Optional[Any] = None) -> None:
        """Leave this engine's devices as its process's death leaves
        them: each is reopened on ``clock`` (default: its own; see
        :meth:`~repro.device.append_log.AppendLog.reopen`), so the
        engine's timer and writers leave it and nothing of the engine
        runs any more."""
        clock = self.clock if clock is None else clock
        for device in (self.aof_log, self.cold_device):
            if device is not None:
                device.reopen(clock)

    def restarted(self, log: Optional[Any], cold: Optional[Any] = None,
                  clock: Optional[Any] = None) -> "StorageEngine":
        """A new engine of this one's configuration on ``clock``
        (default: this one's), built over ``log`` -- it logs there,
        whatever its configuration says of a log -- and replayed from
        it; behind the tiering wrapper its cold archive is recovered
        from ``cold``, or starts empty on a new device, as a replica's
        does.  :meth:`reopen` restarts over the engine's own devices, a
        backup restore (:meth:`~repro.gdpr.store.GDPRStore.restore`)
        over a copy of a generation's device and no cold one."""
        clock = self.clock if clock is None else clock
        fresh = self._reopened(clock, log, cold)
        fresh.replay_aof()
        return fresh

    def _reopened(self, clock: Any, log: Optional[Any],
                  cold: Optional[Any]) -> "StorageEngine":
        """:meth:`restarted` before the replay: an empty engine."""
        raise NotImplementedError

    def rewrite_aof(self, keys: Optional[Iterable[bytes]] = None) -> int:
        """Compact the durable command log to the records of the
        keyspace (BGREWRITEAOF / WAL checkpoint): every part of it, or
        with ``keys`` only the parts that own those keys (see
        :meth:`~repro.kvstore.aof.AofWriter.rewrite`); returns the bytes
        written.  Deleted data -- any trace of an erased subject
        included -- is gone from the rewritten parts afterwards, and a
        key's every trace is in the one part that owns it."""
        if self.aof is None:
            raise PersistenceError(
                f"the {self.engine_name} engine has no durable log")
        size = self.aof.rewrite(self, keys)
        if keys is None:
            self._last_rewrite = self.clock.now()
        self.rewrites_completed += 1
        return size

    def records_of(self, db_index: int,
                   keys: Iterable[bytes]) -> Iterable[StoredRecord]:
        """The records of those of ``keys`` database ``db_index`` holds,
        in the order given, as :meth:`snapshot_records` hands them out
        (expired-but-unreclaimed ones and metadata columns included): a
        targeted log rewrite's input."""
        raise NotImplementedError

    # -- the writes an engine logs on its own initiative -------------------

    def _remove_key(self, db_index: int, key: bytes, reason: str) -> bool:
        """Drop ``key`` from the keyspace and fire the deletion tap with
        ``reason``, logging nothing; True when a record was removed."""
        raise NotImplementedError

    def _restore_deadline(self, key: bytes, expire_at: float) -> None:
        """Give the database-0 key just written the exact deadline
        ``expire_at`` (its logged form carries milliseconds)."""
        raise NotImplementedError

    def _reclaim_expired(self, db_index: int, key: bytes,
                         reason: str) -> None:
        """Lazy and active expiration: remove the key, then log and
        replicate a DEL, as Redis does, so the log and every replica
        converge deterministically."""
        self._remove_key(db_index, key, reason)
        self.stats.expired_keys += 1
        if self._loading:
            return
        if self.aof is not None:
            self.aof.feed_command(db_index, [b"DEL", key], is_write=True)
        self.notify_write(db_index, [b"DEL", key])

    def demote_remove(self, keys: Sequence[bytes], db_index: int = 0) -> int:
        """Remove ``keys`` from the keyspace on behalf of a tiering layer
        that has just sealed a durable cold copy of each.

        The deletion tap fires with reason ``"demote"`` (so compliance
        layers keep their metadata -- a tier move is not an erasure),
        the durable log records one DEL naming every removed key (their
        durable home is now the cold device), and the effective-write
        stream stays **silent** -- replicas keep serving their full
        copy.  Returns the number of records removed."""
        removed = [key for key in keys
                   if self._remove_key(db_index, key, "demote")]
        if removed and self.aof is not None and not self._loading:
            self.aof.feed_command(db_index, [b"DEL", *removed], is_write=True)
            self.aof.post_command()
        return len(removed)

    def promote_insert(self, key: bytes, value: bytes,
                       expire_at: Optional[float],
                       metadata: Optional[MetadataRow] = None) -> None:
        """Fill a record (database 0) in on behalf of a tiering layer
        that serves it from the archive; the counterpart of
        :meth:`demote_remove`.

        The fill costs exactly what the client command ``SET key value``
        (``SET key value PXAT ms`` with an expiry) costs, plus -- with
        ``metadata`` on an engine with metadata columns -- the
        :meth:`annotate_metadata` that restores the owner columns; the
        keyspace ends up holding ``expire_at`` itself (the wire form
        carries milliseconds, the archive the exact deadline).  It
        appends nothing: no log record and no write-stream record -- the
        archive holds the record durably, and replicas already hold it
        (demotion is silent on the write stream).  The periodic
        maintenance cycle (active expiry, vacuum) does not run: it waits
        for the tick of the client command the fill serves, as on an
        untiered engine."""
        self._promoting = True
        try:
            if expire_at is None:
                self.execute(b"SET", key, value)
            else:
                # Milliseconds rounded up: a record with under a
                # millisecond left is still live, and a deadline rounded
                # down to the past would make the SET delete it.
                self.execute(b"SET", key, value, b"PXAT",
                             b"%d" % ceil(expire_at * 1000))
                self._restore_deadline(key, expire_at)
            if metadata is not None:
                self.annotate_metadata([metadata])
        finally:
            self._promoting = False

    def log_record(self, key: bytes) -> None:
        """Log database-0 ``key``'s record as a log rewrite writes it
        (:func:`~repro.kvstore.aof.lay_record`), to the durable log only:
        the base a tiering layer lays before it annotates a key it
        filled (:meth:`promote_insert`) without a record.  The base
        restates what the archive already holds durably, so it needs no
        barrier of its own: the write that follows flushes it with its
        own record."""
        aof = self.aof
        if aof is None or self._loading:
            return
        for record in self.records_of(0, (key,)):
            aof.feed_laid(*lay_record(0, record))

    def hold_bases(self, keys: Sequence[bytes]) -> None:
        """Take database-0 ``keys``' records now, as :meth:`log_record`
        logs them, and log them ahead of the next command's own record
        once the engine accepts that command: the bases a tiering layer
        lays before a write to keys it filled.  A refused command logs
        nothing: the caller drops what is left with ``hold_bases(())``."""
        self._bases = [lay_record(0, record)
                       for record in self.records_of(0, keys)]

    # -- replication -------------------------------------------------------

    def spawn_replica(self, clock: Optional[Any] = None) -> "StorageEngine":
        """A fresh same-engine store suitable as a replication target:
        zero configured costs (the replica's apply work must not slow
        the primary's timeline) and no durable log of its own."""
        raise NotImplementedError

    # -- GDPR metadata columns (relational schema hooks) -------------------

    def annotate_metadata(self, rows: List[MetadataRow]) -> None:
        """Record GDPR metadata, one ``(key, owner, purposes)`` row per
        key, in engine-native storage.

        The relational engine implements this as one UPDATE of its
        indexed ``owner``/``purposes`` columns for the whole batch;
        key-value engines keep metadata in the sealed envelope plus the
        GDPR layer's sidecar index, so the default is a no-op."""

    def name_owner(self, key: bytes, owner: str) -> None:
        """Name ``key``'s data subject before the command that writes it,
        so the durable log files the key's history with the subject's
        other keys (:meth:`~repro.kvstore.aof.AofWriter.name_owner`); an
        engine without a log ignores it."""
        aof = self.aof
        if aof is not None:
            aof.name_owner(key, owner)

    def keys_of_owner(self, owner: str) -> Optional[List[str]]:
        """Keys whose metadata columns name ``owner``, or None when the
        engine has no native metadata index (caller falls back to the
        GDPR layer's sidecar)."""
        return None

    # -- listeners ---------------------------------------------------------

    def add_deletion_listener(self, listener: DeletionListener) -> None:
        """Subscribe to every key removal (reason: del / lazy-expire /
        active-expire).  The GDPR layer uses this to timestamp
        erasures."""
        self.deletion_listeners.append(listener)

    def remove_deletion_listener(self, listener: DeletionListener) -> None:
        """Unsubscribe a deletion listener (no-op if absent); slot
        migrators detach when their migration finishes."""
        if listener in self.deletion_listeners:
            self.deletion_listeners.remove(listener)

    def add_write_listener(self, listener: WriteListener) -> None:
        """Subscribe to the effective-write stream (replication feed)."""
        self.write_listeners.append(listener)

    def remove_write_listener(self, listener: WriteListener) -> None:
        """Unsubscribe a write listener (no-op if absent)."""
        if listener in self.write_listeners:
            self.write_listeners.remove(listener)

    def notify_deletion(self, db_index: int, key: bytes, reason: str,
                        when: float) -> None:
        for listener in self.deletion_listeners:
            listener(db_index, key, reason, when)

    def notify_write(self, db_index: int, argv: List[bytes]) -> None:
        for listener in self.write_listeners:
            listener(db_index, argv)


#: name -> engine class; the ``backends`` scenario and the conformance
#: suite iterate this.
ENGINES: Dict[str, Type[StorageEngine]] = {}


def register_engine(name: str, cls: Type[StorageEngine]) -> None:
    """Register an engine class under ``name`` (idempotent per class)."""
    existing = ENGINES.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"engine name {name!r} already registered "
                         f"to {existing.__name__}")
    ENGINES[name] = cls


# The command table lives with the key-value commands, whose package
# imports this module: bound last, so either import order resolves.
from ..kvstore.commands import (  # noqa: E402
    REGISTRY, UNKNOWN, CommandContext, Session, normalize_args)
from ..kvstore.aof import lay_record  # noqa: E402
