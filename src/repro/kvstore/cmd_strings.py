"""String commands: GET, SET, APPEND and INCR.

Semantics follow Redis 4.0: SET supports EX/PX/NX/XX (plus the absolute
EXAT/PXAT forms, which make SET-with-TTL a single replay-safe command),
plain SET discards any existing TTL, INCR requires an integer payload.
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


@command("APPEND", arity=3, write=True)
def cmd_append(ctx: CommandContext, args: List[bytes]) -> int:
    existing = ctx.lookup_write(args[1])
    current = expect_string(existing) if existing is not None else b""
    updated = current + args[2]
    ctx.set_value(args[1], updated)
    return len(updated)


@command("INCR", arity=2, write=True)
def cmd_incr(ctx: CommandContext, args: List[bytes]) -> int:
    existing = ctx.lookup_write(args[1])
    if existing is None:
        current = 0
    else:
        try:
            current = int(expect_string(existing))
        except ValueError:
            raise RespError("ERR value is not an integer or out of range")
    ctx.set_value(args[1], str(current + 1).encode("ascii"))
    return current + 1
