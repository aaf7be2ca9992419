"""Hash commands.  YCSB stores each record as a hash of 10 fields."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.resp import RespError, SimpleString
from .commands import CommandContext, command
from .datatypes import expect_hash

OK = SimpleString("OK")


def _hash_for_write(ctx: CommandContext, key: bytes) -> Dict[bytes, bytes]:
    value = ctx.lookup_write(key)
    if value is None:
        fresh: Dict[bytes, bytes] = {}
        ctx.set_value(key, fresh)
        return fresh
    return expect_hash(value)


def _hash_for_read(ctx: CommandContext,
                   key: bytes) -> Optional[Dict[bytes, bytes]]:
    value = ctx.lookup_read(key)
    if value is None:
        return None
    return expect_hash(value)


@command("HSET", arity=-4, write=True)
def cmd_hset(ctx: CommandContext, args: List[bytes]) -> int:
    pairs = args[2:]
    if len(pairs) % 2 != 0:
        raise RespError("ERR wrong number of arguments for 'hset' command")
    mapping = _hash_for_write(ctx, args[1])
    added = 0
    for i in range(0, len(pairs), 2):
        if pairs[i] not in mapping:
            added += 1
        mapping[pairs[i]] = pairs[i + 1]
    ctx.mark_dirty()
    return added


@command("HMSET", arity=-4, write=True)
def cmd_hmset(ctx: CommandContext, args: List[bytes]) -> SimpleString:
    pairs = args[2:]
    if len(pairs) % 2 != 0:
        raise RespError("ERR wrong number of arguments for 'hmset' command")
    mapping = _hash_for_write(ctx, args[1])
    for i in range(0, len(pairs), 2):
        mapping[pairs[i]] = pairs[i + 1]
    ctx.mark_dirty()
    return OK


@command("HGET", arity=3)
def cmd_hget(ctx: CommandContext, args: List[bytes]) -> Optional[bytes]:
    mapping = _hash_for_read(ctx, args[1])
    if mapping is None:
        return None
    return mapping.get(args[2])


@command("HMGET", arity=-3)
def cmd_hmget(ctx: CommandContext,
              args: List[bytes]) -> List[Optional[bytes]]:
    mapping = _hash_for_read(ctx, args[1]) or {}
    return [mapping.get(field) for field in args[2:]]


@command("HDEL", arity=-3, write=True)
def cmd_hdel(ctx: CommandContext, args: List[bytes]) -> int:
    mapping = _hash_for_read(ctx, args[1])
    if mapping is None:
        return 0
    removed = 0
    for field in args[2:]:
        if field in mapping:
            del mapping[field]
            removed += 1
    if removed:
        ctx.mark_dirty()
        if not mapping:
            ctx.delete(args[1])
    return removed


@command("HGETALL", arity=2)
def cmd_hgetall(ctx: CommandContext, args: List[bytes]) -> List[bytes]:
    mapping = _hash_for_read(ctx, args[1]) or {}
    flat: List[bytes] = []
    for field, value in mapping.items():
        flat.append(field)
        flat.append(value)
    return flat


@command("HLEN", arity=2)
def cmd_hlen(ctx: CommandContext, args: List[bytes]) -> int:
    mapping = _hash_for_read(ctx, args[1])
    return len(mapping) if mapping else 0
