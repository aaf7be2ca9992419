"""RelationalStore: the PostgreSQL-style storage engine.

The paper implements its GDPR feature set in *two* systems -- Redis and
PostgreSQL -- and compares what compliance costs each.  This module is
the second system: a simulated relational engine behind the same
:class:`~repro.engine.base.StorageEngine` interface the key-value store
implements, so the GDPR layer, cluster sharding, replication groups,
slot migration, and the YCSB drivers run over it unchanged.

It keeps the command vocabulary at the interface (the driver translates
KV-shaped operations into prepared statements, as a Redis-compatibility
layer over a relational core would) while modelling what is structurally
different inside:

* **Ordered heap + B-tree access paths** (:mod:`.table`): point lookups
  descend a primary-key index whose depth grows with table size; range
  scans walk keys in order natively (no sorted-set shadow index).
* **Per-statement parse/plan cost with a plan cache** (:mod:`.planner`):
  the first execution of each statement shape pays parse + plan, later
  ones reuse the prepared plan -- the relational engine's fixed
  per-operation overhead, honestly amortized.
* **WAL-style durability**: PostgreSQL acknowledges a committed
  mutation once it is in the write-ahead log, ``synchronous_commit``
  decides when log bytes become durable, and checkpoints bound replay
  work by rewriting the log against current state.  Structurally that
  is the three-frontier append log the Redis AOF uses, so the WAL *is*
  the engine's ``aof``: an :class:`~repro.kvstore.aof.AofWriter` over a
  device-layer :class:`~repro.device.append_log.AppendLog`, and the
  durability spectrum under comparison is one mechanism on both
  engines.  Records are logical statements in RESP frames -- one
  vocabulary for both engines' logs, so the Art. 17 residual check
  (``aof.mentioned_keys``) and crash replay work on either; ``wal_fsync``
  maps onto the always/everysec/no spectrum the paper measures for the
  AOF (``synchronous_commit = on / off`` plus a group-commit window);
  ``wal_log_reads`` is the paper's statement-logging monitoring
  configuration.  The checkpoint is the engine contract's
  ``rewrite_aof``: the log -- or, for an erasure, the log parts that
  own the erased keys -- is rewritten to exactly the rows (payload,
  expiry column, GDPR metadata columns), dropping every trace of
  deleted data -- the erasure-compaction requirement the paper raises
  for logs in section 4.3.
* **GDPR metadata as indexed columns**: ``owner``/``purposes`` live in
  the row (the paper's schema change) behind
  :meth:`~RelationalStore.annotate_metadata`, and
  :meth:`~RelationalStore.keys_of_owner` answers subject queries from
  the secondary index instead of a sidecar.
* **Retention as an indexed sweep**: expiry is an ``expire_at`` column;
  a vacuum-style cycle deletes due rows via the deadline index
  (``DELETE FROM records WHERE expire_at <= now()``), with lazy
  reclamation on access, reasons reported exactly as the key-value
  engine reports them (``lazy-expire`` / ``active-expire``).

Deletion listeners, the effective-write stream (absolute-deadline
translation included), DUMP/RESTORE payloads, and the compacted log all follow
the engine contract, so replication links, slot migrators, and erasure
residual checks behave identically over either engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..common.clock import Clock, SimClock
from ..common.errors import ArityError, CorruptionError, WrongTypeError
from ..common.resp import RespError, SimpleString
from ..device.append_log import AppendLog, FsyncPolicy
from ..engine.base import HZ, EngineStats, MetadataRow, SnapshotImage, \
    StorageEngine, StoredRecord, register_engine
from ..kvstore.aof import AofWriter
from ..kvstore.commands import (
    CommandContext, deadline_ms, glob_match, parse_int, parse_restore)
from ..kvstore.monitor import MonitorFeed
from ..kvstore.snapshot import dump_value, load_value
from .planner import PlanCache
from .table import Row, Table, btree_depth

OK = SimpleString("OK")
PONG = SimpleString("PONG")

#: Keys per B-tree index node: sets the index height a lookup descends.
BTREE_FANOUT = 128


@dataclass
class SqlConfig:
    """Tunables of the relational engine (the Postgres-shaped knobs).

    Cost fields default to zero so unit tests run on a free clock; the
    ``backends`` scenario installs calibrated values.  ``wal_fsync``
    spans the paper's durability spectrum (``synchronous_commit``);
    ``wal_log_reads`` is the statement-logging monitoring
    configuration.  A setting is chosen once, when the engine is built.
    """

    wal_enabled: bool = True
    wal_fsync: str = "everysec"
    wal_log_reads: bool = False
    wal_record_base_cost: float = 0.0
    wal_record_per_byte_cost: float = 0.0
    statement_cpu_cost: float = 0.0      # executor overhead per statement
    statement_parse_cost: float = 0.0    # plan-cache miss: parse
    statement_plan_cost: float = 0.0     # plan-cache miss: optimize
    index_node_cost: float = 0.0         # per B-tree node visited
    row_base_cost: float = 0.0           # per row touched
    row_per_byte_cost: float = 0.0       # per payload byte moved
    seed: int = 0


class RelationalStore(StorageEngine):
    """A single-node relational engine (the "relational"
    :class:`~repro.engine.base.StorageEngine`)."""

    engine_name = "relational"
    supports_metadata_columns = True

    def __init__(self, config: Optional[SqlConfig] = None,
                 clock: Optional[Clock] = None,
                 wal_log: Optional[AppendLog] = None) -> None:
        super().__init__()
        self.config = config if config is not None else SqlConfig()
        self.clock = clock if clock is not None else SimClock()
        self.stats = EngineStats()
        self.monitor = MonitorFeed(clock=self.clock)
        self.table = Table()
        self.plans = PlanCache(self.clock,
                               parse_cost=self.config.statement_parse_cost,
                               plan_cost=self.config.statement_plan_cost)
        self.aof: Optional[AofWriter] = None
        self.aof_log: Optional[AppendLog] = None
        if self.config.wal_enabled or wal_log is not None:
            self.aof_log = wal_log if wal_log is not None \
                else AppendLog(clock=self.clock, name="records.wal")
            self.aof = AofWriter(
                self.aof_log, self.clock,
                policy=FsyncPolicy.parse(self.config.wal_fsync),
                log_reads=self.config.wal_log_reads,
                record_base_cost=self.config.wal_record_base_cost,
                record_per_byte_cost=self.config.wal_record_per_byte_cost)
        self._last_vacuum = self.clock.now()
        self.vacuum_runs = 0
        self.rewrites_completed = 0

    # -- cost accounting ---------------------------------------------------

    def _charge_statement(self, name: str, sql: str) -> None:
        self.plans.prepare(name, sql)
        if self.config.statement_cpu_cost:
            self.clock.advance(self.config.statement_cpu_cost)

    def _charge_index(self, traversals: int = 1) -> None:
        cost = self.config.index_node_cost
        if cost and traversals:
            depth = btree_depth(len(self.table), BTREE_FANOUT)
            self.clock.advance(cost * depth * traversals)

    def _charge_rows(self, count: int, nbytes: int = 0) -> None:
        cost = (self.config.row_base_cost * count
                + self.config.row_per_byte_cost * nbytes)
        if cost:
            self.clock.advance(cost)

    # -- command execution -------------------------------------------------

    def _run(self, handler, ctx: CommandContext, argv: List[bytes]) -> Any:
        """Run the command as one (prepared) statement of the one
        database; a session on any other database is refused."""
        if ctx.session.db_index != 0:
            raise RespError(
                "ERR the relational engine has a single database")
        return handler(self, ctx, argv)

    # -- row access with lazy expiry ---------------------------------------

    def _delete_row(self, key: bytes, reason: str) -> Optional[Row]:
        row = self.table.delete(key)
        if row is not None:
            self.stats.deleted_keys += 1
            self.notify_deletion(0, key, reason, self.clock.now())
        return row

    def _remove_key(self, db_index: int, key: bytes, reason: str) -> bool:
        return self._delete_row(key, reason) is not None

    def _restore_deadline(self, key: bytes, expire_at: float) -> None:
        if key in self.table:        # a deadline <= now was a delete
            self.table.set_expiry(key, expire_at)

    def _deadline_of(self, db_index: int, key: bytes) -> Optional[float]:
        row = self.table.get(key)
        return None if row is None else row.expire_at

    def _live_row(self, key: bytes, for_read: bool = False) -> Optional[Row]:
        row = self.table.get(key)
        if row is not None and row.expire_at is not None \
                and row.expire_at <= self.clock.now():
            self._reclaim_expired(0, key, "lazy-expire")
            row = None
        if for_read:
            if row is None:
                self.stats.keyspace_misses += 1
            else:
                self.stats.keyspace_hits += 1
        return row

    # -- statement handlers ------------------------------------------------
    # Each takes (ctx, argv) and returns the reply; a write that changed
    # a row says so through ``ctx.mark_dirty()``.

    def _stmt_ping(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        if len(argv) > 2:
            raise RespError(
                "ERR wrong number of arguments for 'ping' command")
        self._charge_statement("PING", "SELECT 1")
        if len(argv) == 2:
            return argv[1]
        return PONG

    def _stmt_set(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        # SET k v [PXAT ms | EXAT s]: the deadline is the expire_at value
        # plain SET writes NULL to, so both cost the same.
        expire_at = None
        if len(argv) > 3:
            if len(argv) != 5 or argv[3].upper() not in (b"PXAT", b"EXAT"):
                raise RespError("ERR syntax error")
            expire_at = self._expire_deadline(argv[3].upper(), argv[4])
        self._charge_statement(
            "SET", "INSERT INTO records(key, value, expire_at) "
                   "VALUES ($1, $2, $3) ON CONFLICT (key) DO UPDATE "
                   "SET value = $2, expire_at = $3")
        key, value = argv[1], argv[2]
        self._live_row(key)                  # lazy-reclaim an expired row
        self._charge_index()
        self._charge_rows(1, len(value))
        self.table.upsert(key, value)
        ctx.mark_dirty()
        if expire_at is not None and expire_at <= self.clock.now():
            self._delete_row(key, reason="del")  # a deadline already past
        elif expire_at is not None:
            self.table.set_expiry(key, expire_at)
        return OK

    def _stmt_get(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "GET", "SELECT value FROM records WHERE key = $1")
        self._charge_index()
        row = self._live_row(argv[1], for_read=True)
        if row is None:
            return None
        if not isinstance(row.value, bytes):
            raise WrongTypeError(
                "WRONGTYPE Operation against a key holding the wrong "
                "kind of value")
        self._charge_rows(1, len(row.value))
        return row.value

    def _stmt_del(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "DEL", "DELETE FROM records WHERE key = ANY($1)")
        removed = 0
        for key in argv[1:]:
            self._charge_index()
            if self._live_row(key) is None:
                continue
            row = self._delete_row(key, reason="del")
            self._charge_rows(1, row.payload_bytes() if row else 0)
            removed += 1
        if removed:
            ctx.mark_dirty()
        return removed

    def _stmt_exists(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "EXISTS", "SELECT count(*) FROM records WHERE key = ANY($1)")
        count = 0
        for key in argv[1:]:
            self._charge_index()
            if self._live_row(key, for_read=True) is not None:
                count += 1
        return count

    def _expire_deadline(self, name: bytes, raw: bytes) -> float:
        """The absolute deadline an EXPIRE-family command (or a SET
        option, ``EXAT`` / ``PXAT``) names with ``raw``."""
        amount = parse_int(raw)
        now = self.clock.now()
        if name == b"EXPIRE":
            return now + amount
        if name == b"PEXPIRE":
            return now + amount / 1000.0
        if name in (b"EXPIREAT", b"EXAT"):
            return float(amount)
        return amount / 1000.0               # PEXPIREAT / PXAT

    def _stmt_expire(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "EXPIRE", "UPDATE records SET expire_at = $2 WHERE key = $1")
        key = argv[1]
        self._charge_index()
        if self._live_row(key) is None:
            return 0
        deadline = self._expire_deadline(argv[0].upper(), argv[2])
        ctx.mark_dirty()
        if deadline <= self.clock.now():
            # TTL already in the past: the write is a delete.
            self._delete_row(key, reason="del")
            self._charge_rows(1)
            return 1
        self.table.set_expiry(key, deadline)
        self._charge_index()                 # expire_at index maintenance
        self._charge_rows(1)
        return 1

    def _stmt_ttl(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "TTL", "SELECT expire_at FROM records WHERE key = $1")
        self._charge_index()
        row = self._live_row(argv[1], for_read=True)
        if row is None:
            return -2
        if row.expire_at is None:
            return -1
        name = argv[0].upper()
        if name == b"PEXPIRETIME":
            return deadline_ms(row.expire_at)
        remaining = row.expire_at - self.clock.now()
        if name == b"PTTL":
            return int(round(remaining * 1000))
        return int(round(remaining))

    def _stmt_persist(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "PERSIST",
            "UPDATE records SET expire_at = NULL WHERE key = $1")
        self._charge_index()
        row = self._live_row(argv[1])
        if row is None or not self.table.clear_expiry(argv[1]):
            return 0
        self._charge_rows(1)
        ctx.mark_dirty()
        return 1

    def _wide_row(self, key: bytes, create: bool) -> Optional[Row]:
        row = self._live_row(key)
        if row is None:
            if not create:
                return None
            row = self.table.upsert(key, {})
            return row
        if isinstance(row.value, bytes):
            raise WrongTypeError(
                "WRONGTYPE Operation against a key holding the wrong "
                "kind of value")
        return row

    def _stmt_hset(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        if len(argv) % 2 != 0:
            raise RespError(
                "ERR wrong number of arguments for "
                f"'{argv[0].decode().lower()}' command")
        self._charge_statement(
            "HSET", "INSERT INTO records(key, cols) VALUES ($1, $2) "
                    "ON CONFLICT (key) DO UPDATE SET cols = "
                    "records.cols || $2")
        self._charge_index()
        row = self._wide_row(argv[1], create=True)
        added = 0
        nbytes = 0
        for index in range(2, len(argv), 2):
            field, value = argv[index], argv[index + 1]
            if field not in row.value:
                added += 1
            row.value[field] = value
            nbytes += len(field) + len(value)
        self._charge_rows(1, nbytes)
        ctx.mark_dirty()
        return added

    def _stmt_hmset(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._stmt_hset(ctx, argv)
        return OK

    def _stmt_hget(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "HGET", "SELECT cols -> $2 FROM records WHERE key = $1")
        self._charge_index()
        row = self._wide_row(argv[1], create=False)
        if row is None:
            self.stats.keyspace_misses += 1
            return None
        self.stats.keyspace_hits += 1
        value = row.value.get(argv[2])
        self._charge_rows(1, len(value) if value else 0)
        return value

    def _stmt_hmget(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "HMGET", "SELECT cols -> ANY($2) FROM records WHERE key = $1")
        self._charge_index()
        row = self._wide_row(argv[1], create=False)
        if row is None:
            self.stats.keyspace_misses += 1
            return [None] * (len(argv) - 2)
        self.stats.keyspace_hits += 1
        out = [row.value.get(field) for field in argv[2:]]
        self._charge_rows(1, sum(len(v) for v in out if v))
        return out

    def _stmt_hgetall(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "HGETALL", "SELECT cols FROM records WHERE key = $1")
        self._charge_index()
        row = self._wide_row(argv[1], create=False)
        if row is None:
            self.stats.keyspace_misses += 1
            return []
        self.stats.keyspace_hits += 1
        flat: List[bytes] = []
        for field in sorted(row.value):
            flat.append(field)
            flat.append(row.value[field])
        self._charge_rows(1, row.payload_bytes())
        return flat

    def _stmt_hlen(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "HLEN", "SELECT jsonb_array_length(cols) FROM records "
                    "WHERE key = $1")
        self._charge_index()
        row = self._wide_row(argv[1], create=False)
        return len(row.value) if row is not None else 0

    def _stmt_hdel(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "HDEL", "UPDATE records SET cols = cols - ANY($2) "
                    "WHERE key = $1")
        self._charge_index()
        row = self._wide_row(argv[1], create=False)
        if row is None:
            return 0
        removed = 0
        for field in argv[2:]:
            if field in row.value:
                del row.value[field]
                removed += 1
        self._charge_rows(1)
        if not row.value:
            self._delete_row(argv[1], reason="del")
        if removed:
            ctx.mark_dirty()
        return removed

    def _stmt_keys(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "KEYS", "SELECT key FROM records WHERE key LIKE $1 "
                    "ORDER BY key")
        pattern = argv[1]
        now = self.clock.now()
        out = []
        for row in self.table.rows():
            if row.expire_at is not None and row.expire_at <= now:
                continue
            if glob_match(pattern, row.key):
                out.append(row.key)
        self._charge_rows(len(self.table))
        return out

    def _stmt_dbsize(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "DBSIZE", "SELECT count(*) FROM records")
        self._charge_index()
        return len(self.table)

    def _stmt_flush(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement("FLUSH", "TRUNCATE records")
        dropped = self.table.clear()
        self.stats.deleted_keys += dropped
        self._charge_rows(dropped)
        ctx.mark_dirty()
        return OK

    def _stmt_range(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "RANGE", "SELECT key FROM records WHERE key >= $1 "
                     "ORDER BY key LIMIT $2")
        count = parse_int(argv[2])
        if count < 0:
            raise RespError("ERR LIMIT must be >= 0")
        self._charge_index()
        now = self.clock.now()
        out: List[bytes] = []
        for key in self.table.iter_from(argv[1]):
            if len(out) >= count:
                break
            row = self.table.get(key)
            if row is not None and row.expire_at is not None \
                    and row.expire_at <= now:
                continue            # dead tuple: the scan walks past it
            out.append(key)
        self._charge_rows(len(out))
        return out

    def _stmt_dump(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "DUMP", "SELECT row_image FROM records WHERE key = $1")
        self._charge_index()
        row = self._live_row(argv[1], for_read=True)
        if row is None:
            return None
        self._charge_rows(1, row.payload_bytes())
        return dump_value(row.value)

    def _stmt_restore(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        self._charge_statement(
            "RESTORE", "INSERT INTO records(key, row_image) "
                       "VALUES ($1, $3)")
        key = argv[1]
        replace_flag, expire_at = parse_restore(argv, self.clock.now())
        replaced = self._live_row(key) is not None
        if replaced:
            if not replace_flag:
                raise RespError("BUSYKEY Target key name already exists.")
            self._delete_row(key, reason="del")
        try:
            value = load_value(argv[3])
        except CorruptionError:
            raise RespError(
                "ERR DUMP payload version or checksum are wrong")
        if not isinstance(value, (bytes, dict)):
            raise WrongTypeError(
                "WRONGTYPE the relational engine stores value and "
                "wide-column rows only")
        self._charge_index()
        if expire_at is not None and expire_at <= self.clock.now():
            if replaced:                 # a deadline already past: no row
                ctx.mark_dirty()
            return OK
        self._charge_rows(1, len(argv[3]))
        self.table.upsert(key, value)
        if expire_at is not None:
            self.table.set_expiry(key, expire_at)
            self._charge_index()
        ctx.mark_dirty()
        return OK

    def _stmt_gdprmeta(self, ctx: CommandContext, argv: List[bytes]) -> Any:
        # GDPRMETA k1 o1 p1 ... kn on pn: one UPDATE for n rows; the
        # reply counts the live rows annotated.
        if len(argv) % 3 != 1:
            raise ArityError(
                "ERR wrong number of arguments for 'gdprmeta' command")
        self._charge_statement(
            "GDPRMETA", "UPDATE records SET owner = v.o, purposes = v.p "
                        "FROM (VALUES ($1, $2, $3), ...) AS v(k, o, p) "
                        "WHERE key = v.k")
        annotated = 0
        for key, owner, purposes in zip(argv[1::3], argv[2::3], argv[3::3]):
            self._charge_index(traversals=2)     # PK descent + owner index
            if self._live_row(key) is None:
                continue
            self.table.set_metadata(key, owner.decode("utf-8", "replace"),
                                    purposes.decode("utf-8", "replace"))
            self._charge_rows(1)
            ctx.mark_dirty()
            annotated += 1
        return annotated

    _HANDLERS: Dict[bytes, Callable] = {
        b"PING": _stmt_ping,
        b"SET": _stmt_set,
        b"GET": _stmt_get,
        b"DEL": _stmt_del,
        b"UNLINK": _stmt_del,
        b"EXISTS": _stmt_exists,
        b"EXPIRE": _stmt_expire,
        b"PEXPIRE": _stmt_expire,
        b"EXPIREAT": _stmt_expire,
        b"PEXPIREAT": _stmt_expire,
        b"TTL": _stmt_ttl,
        b"PTTL": _stmt_ttl,
        b"PEXPIRETIME": _stmt_ttl,
        b"PERSIST": _stmt_persist,
        b"HSET": _stmt_hset,
        b"HMSET": _stmt_hmset,
        b"HGET": _stmt_hget,
        b"HMGET": _stmt_hmget,
        b"HGETALL": _stmt_hgetall,
        b"HLEN": _stmt_hlen,
        b"HDEL": _stmt_hdel,
        b"KEYS": _stmt_keys,
        b"DBSIZE": _stmt_dbsize,
        b"FLUSHALL": _stmt_flush,
        b"FLUSHDB": _stmt_flush,
        b"RANGE": _stmt_range,
        b"DUMP": _stmt_dump,
        b"RESTORE": _stmt_restore,
        b"GDPRMETA": _stmt_gdprmeta,
    }

    # -- background work (vacuum + WAL fsync) ------------------------------

    def tick(self) -> None:
        """Run due background work: the retention vacuum (the WAL's
        everysec fsync runs on its device's timer)."""
        now = self.clock.now()
        if not self._promoting \
                and now - self._last_vacuum >= 1.0 / HZ:
            self._last_vacuum = now
            self.vacuum(now)

    def vacuum(self, now: Optional[float] = None) -> int:
        """One retention sweep: delete rows whose ``expire_at`` passed,
        found via the deadline index; returns rows reclaimed."""
        if now is None:
            now = self.clock.now()
        due = self.table.due_rows(now)
        if due:
            self._charge_statement(
                "VACUUM", "DELETE FROM records WHERE expire_at <= now()")
            self._charge_index()
            self._charge_rows(len(due))
        for key in due:
            self._reclaim_expired(0, key, "active-expire")
        if due:
            self.vacuum_runs += 1
            if self.aof is not None:
                self.aof.post_command()
        return len(due)

    # -- engine interface: keyspace views ----------------------------------

    def live_keys(self, db_index: int = 0) -> List[bytes]:
        now = self.clock.now()
        return [row.key for row in self.table.rows()
                if row.expire_at is None or row.expire_at > now]

    def has_live_key(self, key: bytes, db_index: int = 0) -> bool:
        row = self.table.get(key)
        return (row is not None
                and (row.expire_at is None
                     or row.expire_at > self.clock.now()))

    def scan_records(self, db_index: int = 0):
        now = self.clock.now()
        for row in self.table.rows():
            if row.expire_at is not None and row.expire_at <= now:
                continue
            yield StoredRecord(row.key, row.value, row.expire_at)

    def key_count(self, db_index: int = 0) -> int:
        return len(self.table)

    # -- GDPR metadata columns ---------------------------------------------

    def annotate_metadata(self, rows: List[MetadataRow]) -> None:
        """UPDATE the rows' indexed metadata columns (the paper's
        relational schema approach): one statement and one WAL record
        for the whole batch, a per-row index and row charge inside."""
        if rows:
            self.execute("GDPRMETA", *chain.from_iterable(
                (key, owner, ",".join(sorted(purposes)))
                for key, owner, purposes in rows))

    def keys_of_owner(self, owner: str) -> List[str]:
        """Subject lookup straight off the owner secondary index."""
        self._charge_statement(
            "SELECT_BY_OWNER",
            "SELECT key FROM records WHERE owner = $1 ORDER BY key")
        self._charge_index()
        now = self.clock.now()
        out: List[str] = []
        for key in self.table.keys_of_owner(owner):
            row = self.table.get(key)
            if row is not None and row.expire_at is not None \
                    and row.expire_at <= now:
                continue
            out.append(key.decode("utf-8", "replace"))
        self._charge_rows(len(out))
        return out

    # -- durability --------------------------------------------------------

    def snapshot_records(self) -> SnapshotImage:
        """Point-in-time base backup / WAL checkpoint: every row with its
        expiry and metadata columns."""
        return {0: ((row.key, row.value, row.expire_at,
                     None if row.owner is None else (row.owner, row.purposes))
                    for row in self.table.rows())}

    def records_of(self, db_index: int, keys: Iterable[bytes]
                   ) -> List[StoredRecord]:
        rows = [row for row in map(self.table.get, keys) if row is not None]
        return [StoredRecord(row.key, row.value, row.expire_at,
                             None if row.owner is None
                             else (row.owner, row.purposes))
                for row in rows]

    def _reopened(self, clock: Clock, log: Optional[AppendLog],
                  cold: Optional[AppendLog]) -> "RelationalStore":
        return RelationalStore(self.config, clock=clock, wal_log=log)

    # -- replication -------------------------------------------------------

    def spawn_replica(self, clock: Optional[Clock] = None
                      ) -> "RelationalStore":
        """A zero-cost relational replica (no WAL of its own), per the
        engine contract."""
        return RelationalStore(
            SqlConfig(wal_enabled=False),
            clock=clock if clock is not None else self.clock)

    # -- introspection -----------------------------------------------------

    def info_text(self) -> str:
        lines = [
            "# Server",
            "engine:relational",
            f"sim_time:{self.clock.now():.6f}",
            "",
            "# Persistence",
            f"wal_enabled:{1 if self.aof is not None else 0}",
            f"wal_checkpoints:{self.rewrites_completed}",
            f"wal_pending_bytes:"
            f"{self.aof.unsynced_bytes() if self.aof else 0}",
            "",
            "# Planner",
            f"plan_cache_size:{len(self.plans)}",
            f"plan_cache_hits:{self.plans.hits}",
            f"plan_cache_misses:{self.plans.misses}",
            "",
            "# Stats",
            f"total_statements_processed:{self.stats.commands_processed}",
            f"expired_rows:{self.stats.expired_keys}",
            f"deleted_rows:{self.stats.deleted_keys}",
            f"vacuum_runs:{self.vacuum_runs}",
            "",
            "# Keyspace",
            f"records:rows={len(self.table)}",
        ]
        return "\n".join(lines) + "\n"


register_engine(RelationalStore.engine_name, RelationalStore)
