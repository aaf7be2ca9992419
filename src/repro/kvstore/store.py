"""The key-value store facade: databases, commands, persistence, cron.

:class:`KeyValueStore` is the reproduction's stand-in for Redis 4.0.11.  It
wires the keyspace, command table, AOF, slowlog, MONITOR, and
the pluggable active-expiry strategy behind one ``execute`` entry point,
and runs background work (expiry cycles, periodic AOF rewrite) from a
cron driven by its clock -- the same serverCron structure Redis has.
The everysec fsync is not the cron's: it runs on the log device's own
timer, as Redis runs it on a background thread.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence

from ..common.clock import Clock, SimClock
from ..device.append_log import AppendLog, FsyncPolicy
from ..engine.base import HZ, EngineStats, SnapshotImage, StorageEngine, \
    StoredRecord, register_engine
from . import cmd_admin  # noqa: F401  (imports register commands)
from . import cmd_collections  # noqa: F401
from . import cmd_hash  # noqa: F401
from . import cmd_keys  # noqa: F401
from . import cmd_strings  # noqa: F401
from .aof import AofWriter
from .commands import REGISTRY, CommandContext
from .datatypes import RedisValue
from .expiry import ExpiryStrategy, make_strategy
from .keyspace import Database
from .monitor import MonitorFeed
from .slowlog import Slowlog


@dataclass
class StoreConfig:
    """Tunable server configuration (the paper's experiment knobs).

    ``appendonly`` + ``appendfsync`` + ``aof_log_reads`` span the paper's
    monitoring configurations; ``expiry_strategy`` spans Figure 2;
    ``aof_rewrite_interval`` is the section 4.3 periodic-compaction bound.
    A setting is chosen once, when the store is built.
    """

    appendonly: bool = False
    appendfsync: str = "everysec"
    aof_log_reads: bool = False
    aof_record_base_cost: float = 0.0
    aof_record_per_byte_cost: float = 0.0
    aof_rewrite_interval: float = 0.0      # seconds; 0 disables periodic
    expiry_strategy: str = "lazy"
    command_cpu_cost: float = 0.0
    seed: int = 0


#: Numbered databases every key-value store has (Redis' default).
DATABASES = 16


class KeyValueStore(StorageEngine):
    """A single-node, single-threaded key-value store (the "redislike"
    :class:`~repro.engine.base.StorageEngine`)."""

    engine_name = "redislike"

    def __init__(self, config: Optional[StoreConfig] = None,
                 clock: Optional[Clock] = None,
                 aof_log: Optional[AppendLog] = None) -> None:
        super().__init__()
        self.config = config if config is not None else StoreConfig()
        self.clock = clock if clock is not None else SimClock()
        self.databases = [Database(i) for i in range(DATABASES)]
        self.stats = EngineStats()
        self.slowlog = Slowlog()
        self.monitor = MonitorFeed(clock=self.clock)
        self.expiry: ExpiryStrategy = make_strategy(
            self.config.expiry_strategy,
            rng=random.Random(self.config.seed + 1))
        self.aof: Optional[AofWriter] = None
        self.aof_log: Optional[AppendLog] = None
        if self.config.appendonly or aof_log is not None:
            self.aof_log = aof_log if aof_log is not None else AppendLog(
                clock=self.clock)
            self.aof = AofWriter(
                self.aof_log, self.clock,
                policy=FsyncPolicy.parse(self.config.appendfsync),
                log_reads=self.config.aof_log_reads,
                record_base_cost=self.config.aof_record_base_cost,
                record_per_byte_cost=self.config.aof_record_per_byte_cost)
        self._last_cron = self.clock.now()
        self._last_rewrite = self.clock.now()
        self.rewrites_completed = 0

    @property
    def database_count(self) -> int:
        return len(self.databases)

    # -- command execution -------------------------------------------------------

    _HANDLERS = {name: spec.handler for name, spec in REGISTRY.items()
                 if spec.handler is not None}

    def _run(self, handler, ctx: CommandContext, argv: List[bytes]) -> Any:
        if self.config.command_cpu_cost:
            self.clock.advance(self.config.command_cpu_cost)
        reply = handler(ctx, argv)
        self.slowlog.maybe_record(ctx.now, self.clock.now() - ctx.now, argv)
        return reply

    # -- keyspace access with lazy expiry ----------------------------------------

    def key_is_expired(self, db: Database, key: bytes, now: float) -> bool:
        expire_at = db.get_expiry(key)
        return expire_at is not None and expire_at <= now

    def expire_if_needed(self, db: Database, key: bytes, now: float) -> bool:
        """Lazy expiration: reclaim the key if its TTL has passed."""
        if not self.key_is_expired(db, key, now):
            return False
        self._reclaim_expired(db.index, key, "lazy-expire")
        return True

    def lookup_key(self, db: Database, key: bytes, now: float,
                   for_read: bool) -> Optional[RedisValue]:
        self.expire_if_needed(db, key, now)
        value = db.get_value(key)
        if for_read:
            if value is None:
                db.misses += 1
                self.stats.keyspace_misses += 1
            else:
                db.hits += 1
                self.stats.keyspace_hits += 1
        return value

    def delete_key(self, db: Database, key: bytes,
                   reason: str = "del") -> bool:
        existed = db.remove(key)
        if existed:
            self.expiry.note_expiry_cleared(key)
            self.stats.deleted_keys += 1
            self.notify_deletion(db.index, key, reason, self.clock.now())
        return existed

    def set_key_expiry(self, db: Database, key: bytes,
                       expire_at: float) -> None:
        db.set_expiry(key, expire_at)
        self.expiry.note_expiry_set(key, expire_at)

    def clear_key_expiry(self, db: Database, key: bytes) -> bool:
        cleared = db.clear_expiry(key)
        if cleared:
            self.expiry.note_expiry_cleared(key)
        return cleared

    def flush_database(self, db: Database) -> int:
        dropped = db.flush()
        self.expiry.note_flush()
        self.stats.deleted_keys += dropped
        return dropped

    def _remove_key(self, db_index: int, key: bytes, reason: str) -> bool:
        return self.delete_key(self.databases[db_index], key, reason)

    def _restore_deadline(self, key: bytes, expire_at: float) -> None:
        if key in self.databases[0].data:  # a deadline <= now deleted it
            self.databases[0].set_expiry(key, expire_at)

    def _deadline_of(self, db_index: int, key: bytes) -> Optional[float]:
        return self.databases[db_index].get_expiry(key)

    # -- cron ---------------------------------------------------------------------

    def tick(self) -> None:
        """Run due background work.  Called after each command; callers
        driving long idle periods should call it after advancing the
        clock."""
        now = self.clock.now()
        if not self._promoting \
                and now - self._last_cron >= 1.0 / HZ:
            self._last_cron = now
            self.cron(now)

    def cron(self, now: Optional[float] = None) -> int:
        """One serverCron iteration; returns keys actively expired."""
        if now is None:
            now = self.clock.now()
        expired = 0
        for db in self.databases:
            if db.volatile_count == 0:
                continue
            expired += self.expiry.run_cycle(db, now, self.clock,
                                             self._on_active_expire)
        if self.aof is not None:
            if expired:
                self.aof.post_command()
            interval = self.config.aof_rewrite_interval
            if interval and now - self._last_rewrite >= interval:
                self.rewrite_aof()
        return expired

    def _on_active_expire(self, db: Database, key: bytes) -> None:
        self._reclaim_expired(db.index, key, "active-expire")

    # -- persistence ----------------------------------------------------------------

    def snapshot_records(self) -> SnapshotImage:
        """RDB-style SAVE / AOF rewrite: every populated database's keys
        in keyspace order."""
        return {db.index: db.records() for db in self.databases if len(db)}

    def records_of(self, db_index: int, keys: Iterable[bytes]
                   ) -> List[StoredRecord]:
        db = self.databases[db_index]
        data, expires = db.data, db.expires
        return [StoredRecord(key, data[key], expires.get(key))
                for key in keys if key in data]

    # -- introspection ------------------------------------------------------------

    def info_text(self) -> str:
        lines = [
            "# Server",
            "repro_version:1.0.0",
            f"sim_time:{self.clock.now():.6f}",
            "",
            "# Persistence",
            f"aof_enabled:{1 if self.aof is not None else 0}",
            f"aof_last_rewrite_size:{self.aof.base_size if self.aof else 0}",
            f"aof_rewrites:{self.rewrites_completed}",
            f"aof_pending_bytes:"
            f"{self.aof.unsynced_bytes() if self.aof else 0}",
            "",
            "# Stats",
            f"total_commands_processed:{self.stats.commands_processed}",
            f"expired_keys:{self.stats.expired_keys}",
            f"deleted_keys:{self.stats.deleted_keys}",
            f"keyspace_hits:{self.stats.keyspace_hits}",
            f"keyspace_misses:{self.stats.keyspace_misses}",
            "",
            "# Keyspace",
        ]
        for db in self.databases:
            if len(db):
                lines.append(
                    f"db{db.index}:keys={len(db)},"
                    f"expires={db.volatile_count}")
        return "\n".join(lines) + "\n"

    # -- engine interface: keyspace views & replication --------------------------
    # (Listener management is inherited from StorageEngine.)

    def live_keys(self, db_index: int = 0) -> List[bytes]:
        """Every non-expired key of one database (no lazy-expire side
        effects); the slot-migration scan and importing-slot filters
        read the keyspace through this."""
        db = self.databases[db_index]
        now = self.clock.now()
        return [key for key in db.keys()
                if not self.key_is_expired(db, key, now)]

    def has_live_key(self, key: bytes, db_index: int = 0) -> bool:
        db = self.databases[db_index]
        return (key in db
                and not self.key_is_expired(db, key, self.clock.now()))

    def scan_records(self, db_index: int = 0):
        """Live (key, value, expire_at) records -- the GDPR index
        rebuild path."""
        db = self.databases[db_index]
        now = self.clock.now()
        for key in db.keys():
            if self.key_is_expired(db, key, now):
                continue
            yield StoredRecord(key, db.get_value(key), db.get_expiry(key))

    def key_count(self, db_index: int = 0) -> int:
        return len(self.databases[db_index])

    def _reopened(self, clock: Clock, log: Optional[AppendLog],
                  cold: Optional[AppendLog]) -> "KeyValueStore":
        return KeyValueStore(self.config, clock=clock, aof_log=log)

    def spawn_replica(self, clock: Optional[Clock] = None) -> "KeyValueStore":
        """A zero-cost plain store on ``clock`` (default: this store's)
        -- the replication layer's default replica, as in
        :class:`~repro.engine.base.StorageEngine`."""
        return KeyValueStore(
            StoreConfig(),
            clock=clock if clock is not None else self.clock)


register_engine(KeyValueStore.engine_name, KeyValueStore)
