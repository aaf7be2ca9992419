"""Generic key-space commands: deletion, expiry, iteration.

These are the primitives section 4.3 of the paper analyzes: DEL/UNLINK for
immediate removal, EXPIRE/EXPIREAT for deferred removal, and the FLUSH
commands for bulk erasure.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.resp import RespError, SimpleString
from .commands import (
    BROADCAST,
    PER_SHARD,
    CommandContext,
    command,
    deadline_ms,
    glob_match,
    parse_int,
    parse_restore,
)
from .datatypes import type_name

OK = SimpleString("OK")


@command("DEL", arity=-2, write=True, keys=(1, -1, 1))
def cmd_del(ctx: CommandContext, args: List[bytes]) -> int:
    return sum(1 for key in args[1:] if ctx.delete(key))


@command("UNLINK", arity=-2, write=True, keys=(1, -1, 1))
def cmd_unlink(ctx: CommandContext, args: List[bytes]) -> int:
    # Single-threaded simulation: UNLINK's lazy reclaim is equivalent to
    # DEL for visibility; the distinction the paper cares about (when data
    # stops being *accessible*) is identical.
    return sum(1 for key in args[1:] if ctx.delete(key))


@command("EXISTS", arity=-2, keys=(1, -1, 1))
def cmd_exists(ctx: CommandContext, args: List[bytes]) -> int:
    return sum(1 for key in args[1:] if ctx.lookup_read(key) is not None)


@command("TYPE", arity=2)
def cmd_type(ctx: CommandContext, args: List[bytes]) -> SimpleString:
    value = ctx.lookup_read(args[1])
    if value is None:
        return SimpleString("none")
    return SimpleString(type_name(value))


@command("KEYS", arity=2, routing=BROADCAST)
def cmd_keys(ctx: CommandContext, args: List[bytes]) -> List[bytes]:
    pattern = args[1]
    out = []
    for key in ctx.db.keys():
        if ctx.store.key_is_expired(ctx.db, key, ctx.now):
            continue
        if glob_match(pattern, key):
            out.append(key)
    return out


@command("SCAN", arity=-2, routing=PER_SHARD)
def cmd_scan(ctx: CommandContext, args: List[bytes]) -> List:
    """Cursor iteration.  The cursor is a position in the key table; like
    Redis, a full iteration visits every key that exists throughout, and
    COUNT is a hint."""
    cursor = parse_int(args[1], "ERR invalid cursor")
    count = 10
    pattern: Optional[bytes] = None
    i = 2
    while i < len(args):
        option = args[i].upper()
        if option == b"COUNT" and i + 1 < len(args):
            count = parse_int(args[i + 1])
            if count <= 0:
                raise RespError("ERR syntax error")
            i += 2
        elif option == b"MATCH" and i + 1 < len(args):
            pattern = args[i + 1]
            i += 2
        else:
            raise RespError("ERR syntax error")
    table = ctx.db.all_keys_sample._items  # stable compact table
    if cursor < 0 or cursor > len(table):
        cursor = 0
    window = table[cursor:cursor + count]
    next_cursor = cursor + count
    if next_cursor >= len(table):
        next_cursor = 0
    keys = []
    for key in window:
        if ctx.store.key_is_expired(ctx.db, key, ctx.now):
            continue
        if pattern is None or glob_match(pattern, key):
            keys.append(key)
    return [str(next_cursor).encode("ascii"), keys]


@command("RANDOMKEY", arity=1, routing=PER_SHARD)
def cmd_randomkey(ctx: CommandContext, args: List[bytes]) -> Optional[bytes]:
    # Retry a few times if we land on expired keys, like Redis does.
    for _ in range(100):
        key = ctx.db.random_key(ctx.store.rng)
        if key is None:
            return None
        if not ctx.store.key_is_expired(ctx.db, key, ctx.now):
            return key
        ctx.store.expire_if_needed(ctx.db, key, ctx.now)
    return None


@command("RENAME", arity=3, write=True, keys=(1, 2, 1))
def cmd_rename(ctx: CommandContext, args: List[bytes]) -> SimpleString:
    src, dst = args[1], args[2]
    value = ctx.lookup_write(src)
    if value is None:
        raise RespError("ERR no such key")
    expire_at = ctx.db.get_expiry(src)
    ctx.delete(src)
    ctx.set_value(dst, value)
    ctx.store.clear_key_expiry(ctx.db, dst)
    if expire_at is not None:
        ctx.set_expiry(dst, expire_at)
    return OK


# -- expiry ---------------------------------------------------------------------


def _set_relative_expiry(ctx: CommandContext, key: bytes,
                         seconds: float) -> int:
    if ctx.lookup_write(key) is None:
        return 0
    deadline = ctx.now + seconds
    if deadline <= ctx.now:
        # Negative or zero TTL deletes immediately, as in Redis.
        ctx.delete(key)
        return 1
    ctx.set_expiry(key, deadline)
    return 1


@command("EXPIRE", arity=3, write=True)
def cmd_expire(ctx: CommandContext, args: List[bytes]) -> int:
    return _set_relative_expiry(ctx, args[1], parse_int(args[2]))


@command("PEXPIRE", arity=3, write=True)
def cmd_pexpire(ctx: CommandContext, args: List[bytes]) -> int:
    return _set_relative_expiry(ctx, args[1], parse_int(args[2]) / 1000.0)


def _set_absolute_expiry(ctx: CommandContext, key: bytes,
                         expire_at: float) -> int:
    if ctx.lookup_write(key) is None:
        return 0
    if expire_at <= ctx.now:
        ctx.delete(key)
        return 1
    ctx.set_expiry(key, expire_at)
    return 1


@command("EXPIREAT", arity=3, write=True)
def cmd_expireat(ctx: CommandContext, args: List[bytes]) -> int:
    return _set_absolute_expiry(ctx, args[1], float(parse_int(args[2])))


@command("PEXPIREAT", arity=3, write=True)
def cmd_pexpireat(ctx: CommandContext, args: List[bytes]) -> int:
    return _set_absolute_expiry(ctx, args[1], parse_int(args[2]) / 1000.0)


@command("TTL", arity=2)
def cmd_ttl(ctx: CommandContext, args: List[bytes]) -> int:
    remaining = _remaining(ctx, args[1])
    if remaining is None:
        return -1
    if remaining < 0:
        return -2
    return int(round(remaining))


@command("PTTL", arity=2)
def cmd_pttl(ctx: CommandContext, args: List[bytes]) -> int:
    remaining = _remaining(ctx, args[1])
    if remaining is None:
        return -1
    if remaining < 0:
        return -2
    return int(round(remaining * 1000))


@command("PEXPIRETIME", arity=2)
def cmd_pexpiretime(ctx: CommandContext, args: List[bytes]) -> int:
    """The key's absolute deadline in unix milliseconds (-1 without
    one, -2 for a missing key): what a slot migration ships, so the
    deadline neither rounds to whole milliseconds of *remaining* time
    nor moves with the receiving shard's clock."""
    if ctx.lookup_read(args[1]) is None:
        return -2
    expire_at = ctx.db.get_expiry(args[1])
    if expire_at is None:
        return -1
    return deadline_ms(expire_at)


def _remaining(ctx: CommandContext, key: bytes) -> Optional[float]:
    """None = no TTL; negative = key missing (caller maps to -2)."""
    if ctx.lookup_read(key) is None:
        return -1.0
    expire_at = ctx.db.get_expiry(key)
    if expire_at is None:
        return None
    return expire_at - ctx.now


@command("PERSIST", arity=2, write=True)
def cmd_persist(ctx: CommandContext, args: List[bytes]) -> int:
    if ctx.lookup_write(args[1]) is None:
        return 0
    if ctx.store.clear_key_expiry(ctx.db, args[1]):
        ctx.mark_dirty()
        return 1
    return 0


@command("DUMP", arity=2)
def cmd_dump(ctx: CommandContext, args: List[bytes]) -> Optional[bytes]:
    """Serialize a key's value into a portable, checksummed payload.

    The transfer format slot migration ships between shards; nil if the
    key does not exist (mirrors Redis' DUMP).
    """
    from .snapshot import dump_value
    value = ctx.lookup_read(args[1])
    if value is None:
        return None
    return dump_value(value)


@command("RESTORE", arity=-4, write=True)
def cmd_restore(ctx: CommandContext, args: List[bytes]) -> SimpleString:
    """Materialize a DUMP payload under ``key``.

    ``RESTORE key ttl-ms payload [REPLACE] [ABSTTL]``: refuses to
    overwrite an existing key unless REPLACE is given (Redis' BUSYKEY),
    verifies the payload checksum, and applies ``ttl-ms`` (0 = no
    expiry) relative to the receiving server's clock -- or, with
    ABSTTL, as an absolute unix-ms deadline; a deadline already past
    leaves no key.
    """
    from ..common.errors import CorruptionError
    from .snapshot import load_value
    key = args[1]
    replace, expire_at = parse_restore(args, ctx.now)
    existing = ctx.lookup_write(key)
    if existing is not None:
        if not replace:
            raise RespError("BUSYKEY Target key name already exists.")
        ctx.delete(key)
    try:
        value = load_value(args[3])
    except CorruptionError:
        raise RespError("ERR DUMP payload version or checksum are wrong")
    if expire_at is not None and expire_at <= ctx.now:
        return OK
    ctx.set_value(key, value)
    if expire_at is not None:
        ctx.set_expiry(key, expire_at)
    return OK
