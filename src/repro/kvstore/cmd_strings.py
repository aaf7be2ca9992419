"""String commands: GET/SET and friends.

Semantics follow Redis 4.0: SET supports EX/PX/NX/XX (plus the absolute
EXAT/PXAT forms, which make SET-with-TTL a single replay-safe command),
plain SET discards any existing TTL, INCR-family commands require integer
payloads.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.resp import RespError, SimpleString
from .commands import CommandContext, command, parse_int
from .datatypes import expect_string

OK = SimpleString("OK")


@command("GET", arity=2)
def cmd_get(ctx: CommandContext, args: List[bytes]) -> Optional[bytes]:
    value = ctx.lookup_read(args[1])
    if value is None:
        return None
    return expect_string(value)


@command("SET", arity=-3, write=True)
def cmd_set(ctx: CommandContext, args: List[bytes]) -> Optional[SimpleString]:
    key, value = args[1], args[2]
    expire_at: Optional[float] = None
    require_exists: Optional[bool] = None
    i = 3
    while i < len(args):
        option = args[i].upper()
        if option in (b"EX", b"PX"):
            if i + 1 >= len(args):
                raise RespError("ERR syntax error")
            amount = parse_int(args[i + 1])
            if amount <= 0:
                raise RespError("ERR invalid expire time in set")
            seconds = amount if option == b"EX" else amount / 1000.0
            expire_at = ctx.now + seconds
            i += 2
        elif option in (b"EXAT", b"PXAT"):
            if i + 1 >= len(args):
                raise RespError("ERR syntax error")
            amount = parse_int(args[i + 1])
            if amount <= 0:
                raise RespError("ERR invalid expire time in set")
            expire_at = float(amount) if option == b"EXAT" \
                else amount / 1000.0
            i += 2
        elif option == b"NX":
            if require_exists is True:
                raise RespError("ERR syntax error")
            require_exists = False
            i += 1
        elif option == b"XX":
            if require_exists is False:
                raise RespError("ERR syntax error")
            require_exists = True
            i += 1
        else:
            raise RespError("ERR syntax error")
    existing = ctx.lookup_write(key)
    if require_exists is True and existing is None:
        return None
    if require_exists is False and existing is not None:
        return None
    ctx.set_value(key, value)
    # Plain SET clears any previous TTL (Redis semantics).
    ctx.store.clear_key_expiry(ctx.db, key)
    if expire_at is not None and expire_at <= ctx.now:
        ctx.delete(key)              # a deadline already past: a delete
    elif expire_at is not None:
        ctx.set_expiry(key, expire_at)
    return OK


@command("SETNX", arity=3, write=True)
def cmd_setnx(ctx: CommandContext, args: List[bytes]) -> int:
    if ctx.lookup_write(args[1]) is not None:
        return 0
    ctx.set_value(args[1], args[2])
    return 1


@command("SETEX", arity=4, write=True)
def cmd_setex(ctx: CommandContext, args: List[bytes]) -> SimpleString:
    seconds = parse_int(args[2])
    if seconds <= 0:
        raise RespError("ERR invalid expire time in setex")
    ctx.set_value(args[1], args[3])
    ctx.set_expiry(args[1], ctx.now + seconds)
    return OK


@command("PSETEX", arity=4, write=True)
def cmd_psetex(ctx: CommandContext, args: List[bytes]) -> SimpleString:
    millis = parse_int(args[2])
    if millis <= 0:
        raise RespError("ERR invalid expire time in psetex")
    ctx.set_value(args[1], args[3])
    ctx.set_expiry(args[1], ctx.now + millis / 1000.0)
    return OK


@command("GETSET", arity=3, write=True)
def cmd_getset(ctx: CommandContext, args: List[bytes]) -> Optional[bytes]:
    old = ctx.lookup_write(args[1])
    previous = expect_string(old) if old is not None else None
    ctx.set_value(args[1], args[2])
    ctx.store.clear_key_expiry(ctx.db, args[1])
    return previous


@command("APPEND", arity=3, write=True)
def cmd_append(ctx: CommandContext, args: List[bytes]) -> int:
    existing = ctx.lookup_write(args[1])
    current = expect_string(existing) if existing is not None else b""
    updated = current + args[2]
    ctx.set_value(args[1], updated)
    return len(updated)


@command("STRLEN", arity=2)
def cmd_strlen(ctx: CommandContext, args: List[bytes]) -> int:
    value = ctx.lookup_read(args[1])
    if value is None:
        return 0
    return len(expect_string(value))


def _incr_by(ctx: CommandContext, key: bytes, delta: int) -> int:
    existing = ctx.lookup_write(key)
    if existing is None:
        current = 0
    else:
        raw = expect_string(existing)
        try:
            current = int(raw)
        except ValueError:
            raise RespError("ERR value is not an integer or out of range")
    updated = current + delta
    ctx.set_value(key, str(updated).encode("ascii"))
    return updated


@command("INCR", arity=2, write=True)
def cmd_incr(ctx: CommandContext, args: List[bytes]) -> int:
    return _incr_by(ctx, args[1], 1)


@command("DECR", arity=2, write=True)
def cmd_decr(ctx: CommandContext, args: List[bytes]) -> int:
    return _incr_by(ctx, args[1], -1)


@command("INCRBY", arity=3, write=True)
def cmd_incrby(ctx: CommandContext, args: List[bytes]) -> int:
    return _incr_by(ctx, args[1], parse_int(args[2]))


@command("DECRBY", arity=3, write=True)
def cmd_decrby(ctx: CommandContext, args: List[bytes]) -> int:
    return _incr_by(ctx, args[1], -parse_int(args[2]))


@command("MGET", arity=-2, keys=(1, -1, 1))
def cmd_mget(ctx: CommandContext, args: List[bytes]) -> List[Optional[bytes]]:
    out: List[Optional[bytes]] = []
    for key in args[1:]:
        value = ctx.lookup_read(key)
        out.append(value if isinstance(value, bytes) else None)
    return out


@command("MSET", arity=-3, write=True, keys=(1, -1, 2))
def cmd_mset(ctx: CommandContext, args: List[bytes]) -> SimpleString:
    pairs = args[1:]
    if len(pairs) % 2 != 0:
        raise RespError("ERR wrong number of arguments for 'mset' command")
    for i in range(0, len(pairs), 2):
        ctx.set_value(pairs[i], pairs[i + 1])
        ctx.store.clear_key_expiry(ctx.db, pairs[i])
    return OK
