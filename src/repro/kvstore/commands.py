"""The command table and execution context.

The one module that knows how a command name classifies.  Command
modules register handlers through :func:`command`; names the key-value
engine has no handler for (the cluster's connection-level commands, the
relational engine's own statements) are entered with :func:`declare`,
so both engines, the cluster, the tenant gate and tiering read one
table.  A :class:`CommandSpec` carries ``arity`` (Redis-style: positive
= exact argument count including the name, negative = minimum),
``write`` (writes always reach the AOF, reads only under the paper's
``aof_log_reads`` extension), ``key_spec`` (Redis' ``(first, last,
step)`` key positions, ``last`` negative counting from the end) and one
:class:`Routing` class.  Replica and split-read eligibility is not
listed anywhere: it is :attr:`CommandSpec.readonly`.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple)

from ..common.errors import ArityError
from ..common.resp import RespError
from .datatypes import RedisValue
from .keyspace import Database

Handler = Callable[["CommandContext", List[bytes]], Any]

REGISTRY: Dict[bytes, "CommandSpec"] = {}


class Routing(NamedTuple):
    """Where a command may run.  ``control`` marks control-path traffic
    (not a data access: never logged to the AOF as one); ``barrier``
    commands need every core of a multi-core shard to themselves."""

    label: str
    control: bool
    barrier: bool


#: Runs on the shard, and the core, owning its keys' hash slot.
KEYED = Routing("keyed", control=False, barrier=False)
#: Names no key: shard 0 unless the caller pins one, core 0.
CONTROL = Routing("control", control=True, barrier=False)
#: Control traffic ordered against every core's work (a TENANT stamp
#: scopes whatever follows it).
CONTROL_BARRIER = Routing("control-barrier", control=True, barrier=True)
#: Keyspace-wide: fans out to every shard, replies merged.
BROADCAST = Routing("broadcast", control=False, barrier=True)
#: A per-shard notion (a cursor, a sample, an ordered scan): the caller
#: pins a shard.
PER_SHARD = Routing("per-shard", control=False, barrier=True)


@dataclass(frozen=True)
class CommandSpec:
    name: bytes
    handler: Optional[Handler]
    arity: int
    write: bool
    key_spec: Tuple[int, int, int]
    routing: Routing

    @property
    def readonly(self) -> bool:
        """May a replica, or any core of a split hot slot, serve it?"""
        return self.routing is KEYED and not self.write

    def keys(self, argv: Sequence[bytes]) -> List[bytes]:
        """The key arguments of ``argv`` (all must share a hash slot in
        a cluster -- Redis' CROSSSLOT rule)."""
        first, last, step = self.key_spec
        if not first:
            return []
        if last < 0:
            last += len(argv)
        return list(argv[first:last + 1:step])

    def check_arity(self, argc: int) -> None:
        ok = argc == self.arity if self.arity >= 0 else argc >= -self.arity
        if not ok:
            raise ArityError(
                f"ERR wrong number of arguments for "
                f"'{self.name.decode().lower()}' command")


def declare(name: str, arity: int, write: bool = False,
            keys: Tuple[int, int, int] = (1, 1, 1),
            routing: Routing = KEYED,
            handler: Optional[Handler] = None) -> None:
    """Enter ``name`` (case-insensitive) in the table.  Only a keyed
    command has key positions."""
    key = name.upper().encode()
    if key in REGISTRY:
        raise ValueError(f"duplicate command registration: {name}")
    REGISTRY[key] = CommandSpec(
        name=key, handler=handler, arity=arity, write=write,
        key_spec=keys if routing is KEYED else (0, 0, 0), routing=routing)


def command(name: str, arity: int,
            **classification: Any) -> Callable[[Handler], Handler]:
    """Decorator registering a handler under ``name``; the keyword
    arguments are :func:`declare`'s."""

    def register(handler: Handler) -> Handler:
        declare(name, arity, handler=handler, **classification)
        return handler

    return register


#: How a name nobody declared classifies: its first argument is taken
#: for the key, so the owning shard is the one to answer ``ERR unknown
#: command``, and it is presumed to write, so no replica or split-read
#: core is ever handed it.
UNKNOWN = CommandSpec(name=b"", handler=None, arity=-1, write=True,
                      key_spec=(1, 1, 1), routing=KEYED)

# Connection-level commands: the cluster's server answers them itself.
declare("ASKING", arity=1, routing=CONTROL)
declare("MONITOR", arity=1, routing=CONTROL)
declare("TENANT", arity=2, routing=CONTROL_BARRIER)
# Statements only the relational engine executes (its effective-write
# stream carries GDPRMETA to replicas and migrations: ``GDPRMETA k1 o1
# p1 ... kn on pn`` annotates n rows, every third argument a key).
declare("RANGE", arity=3, routing=PER_SHARD)
declare("GDPRMETA", arity=-4, write=True, keys=(1, -1, 3))
# The GDPR layer's commands, served by a cluster node whose shard runs
# a GDPRStore (repro.gdpr.node).  A record's put, get and delete route
# by key; every one of them appends to the audit chain, so each counts
# as a write and no replica or split-read core ever serves it.  A
# subject's key lookup, purpose-limited processing and the four rights
# (Art. 15/17/20/21) run on every shard.
declare("GDPR.PUT", arity=5, write=True)
declare("GDPR.GET", arity=4, write=True)
declare("GDPR.DEL", arity=3, write=True)
declare("GDPR.SUBJECT", arity=2, routing=BROADCAST)
declare("GDPR.PURPOSE", arity=3, write=True, routing=BROADCAST)
declare("GDPR.ACCESS", arity=4, write=True, routing=BROADCAST)
declare("GDPR.ERASE", arity=4, write=True, routing=BROADCAST)
declare("GDPR.EXPORT", arity=4, write=True, routing=BROADCAST)
declare("GDPR.OBJECT", arity=4, write=True, routing=BROADCAST)


def spec_of(name: bytes) -> CommandSpec:
    """The table's entry for an upper-cased command name."""
    return REGISTRY.get(name, UNKNOWN)


class Session:
    """Per-client state: the selected database and MONITOR flag."""

    def __init__(self, db_index: int = 0) -> None:
        self.db_index = db_index
        self.monitoring = False


class CommandContext:
    """Everything a handler needs: the store, the session, and helpers
    that route keyspace access through lazy-expiry and dirty tracking."""

    __slots__ = ("store", "session", "now", "dirty")

    def __init__(self, store, session: Session, now: float) -> None:
        self.store = store
        self.session = session
        self.now = now
        self.dirty = 0

    @property
    def db(self) -> Database:
        return self.store.databases[self.session.db_index]

    def mark_dirty(self, count: int = 1) -> None:
        self.dirty += count

    # -- keyspace helpers (lazy expiry applied) --------------------------------

    def lookup_read(self, key: bytes) -> Optional[RedisValue]:
        return self.store.lookup_key(self.db, key, self.now, for_read=True)

    def lookup_write(self, key: bytes) -> Optional[RedisValue]:
        return self.store.lookup_key(self.db, key, self.now, for_read=False)

    def set_value(self, key: bytes, value: RedisValue) -> None:
        self.db.set_value(key, value)
        self.mark_dirty()

    def delete(self, key: bytes) -> bool:
        existed = self.store.delete_key(self.db, key, reason="del")
        if existed:
            self.mark_dirty()
        return existed

    def set_expiry(self, key: bytes, expire_at: float) -> None:
        self.store.set_key_expiry(self.db, key, expire_at)
        self.mark_dirty()


# -- shared argument parsing -----------------------------------------------------


def parse_int(raw: bytes, message: str = "ERR value is not an integer "
                                         "or out of range") -> int:
    try:
        return int(raw)
    except ValueError:
        raise RespError(message)


def parse_float(raw: bytes, message: str = "ERR value is not a valid "
                                           "float") -> float:
    try:
        return float(raw)
    except ValueError:
        raise RespError(message)


def deadline_ms(expire_at: float) -> int:
    """An absolute deadline in whole unix milliseconds: the largest m
    with m / 1000 <= ``expire_at``, so a deadline set as ``PXAT m``
    reads back as m, never m - 1 (m / 1000 * 1000 may fall just short
    of m), and a rounded deadline never lands later than the real one."""
    whole = int(expire_at * 1000)
    return whole + ((whole + 1) / 1000 <= expire_at)


def parse_restore(argv: Sequence[bytes],
                  now: float) -> Tuple[bool, Optional[float]]:
    """``RESTORE key ttl payload [REPLACE] [ABSTTL]``'s options as
    ``(replace, deadline)``: the absolute deadline in seconds, or None
    for ``ttl`` 0 (no expiry).  ``ttl`` is milliseconds from ``now``,
    or with ABSTTL a unix-ms deadline."""
    ttl_ms = parse_int(argv[2])
    if ttl_ms < 0:
        raise RespError("ERR Invalid TTL value, must be >= 0")
    replace = absolute = False
    for option in argv[4:]:
        option = option.upper()
        if option == b"REPLACE":
            replace = True
        elif option == b"ABSTTL":
            absolute = True
        else:
            raise RespError("ERR syntax error")
    if not ttl_ms:
        return replace, None
    return replace, ttl_ms / 1000.0 if absolute else now + ttl_ms / 1000.0


def glob_match(pattern: bytes, key: bytes) -> bool:
    """Redis KEYS/SCAN glob matching (via fnmatch on latin-1 text)."""
    return fnmatch.fnmatchcase(key.decode("latin-1"),
                               pattern.decode("latin-1"))


def normalize_args(args: Sequence[Any]) -> List[bytes]:
    """Coerce caller-friendly arguments (str/int/float) to bytes."""
    out: List[bytes] = []
    for arg in args:
        if isinstance(arg, bytes):
            out.append(arg)
        elif isinstance(arg, str):
            out.append(arg.encode("utf-8"))
        elif isinstance(arg, bool):
            raise TypeError("bool is not a valid command argument")
        elif isinstance(arg, int):
            out.append(str(arg).encode("ascii"))
        elif isinstance(arg, float):
            out.append(repr(arg).encode("ascii"))
        else:
            raise TypeError(
                f"unsupported argument type {type(arg).__name__}")
    return out
