"""Sorted-set commands.

The subset implemented here is exactly what the YCSB Redis binding uses
to support scan workloads: ZADD an index of record keys, ZRANGEBYSCORE
to enumerate a scan window, and ZREM to drop a key from the index.
"""

from __future__ import annotations

import math
from typing import List

from ..common.resp import RespError
from .commands import CommandContext, command, parse_float, parse_int
from .datatypes import ZSet, expect_zset


def _parse_score_bound(raw: bytes) -> float:
    text = raw.decode("ascii", "replace")
    if text in ("-inf", "-INF"):
        return -math.inf
    if text in ("+inf", "inf", "+INF", "INF"):
        return math.inf
    return parse_float(raw, "ERR min or max is not a float")


@command("ZADD", arity=-4, write=True)
def cmd_zadd(ctx: CommandContext, args: List[bytes]) -> int:
    pairs = args[2:]
    if len(pairs) % 2 != 0:
        raise RespError("ERR syntax error")
    value = ctx.lookup_write(args[1])
    if value is None:
        zset = ZSet()
        ctx.set_value(args[1], zset)
    else:
        zset = expect_zset(value)
    added = 0
    for i in range(0, len(pairs), 2):
        score = parse_float(pairs[i], "ERR value is not a valid float")
        if zset.add(pairs[i + 1], score):
            added += 1
    ctx.mark_dirty()
    return added


@command("ZREM", arity=-3, write=True)
def cmd_zrem(ctx: CommandContext, args: List[bytes]) -> int:
    value = ctx.lookup_read(args[1])
    if value is None:
        return 0
    zset = expect_zset(value)
    removed = sum(1 for member in args[2:] if zset.remove(member))
    if removed:
        ctx.mark_dirty()
        if not len(zset):
            ctx.delete(args[1])
    return removed


@command("ZRANGEBYSCORE", arity=-4)
def cmd_zrangebyscore(ctx: CommandContext, args: List[bytes]) -> List[bytes]:
    value = ctx.lookup_read(args[1])
    if value is None:
        return []
    zset = expect_zset(value)
    min_score = _parse_score_bound(args[2])
    max_score = _parse_score_bound(args[3])
    offset, count = 0, None
    if len(args) > 4:
        if len(args) != 7 or args[4].upper() != b"LIMIT":
            raise RespError("ERR syntax error")
        offset = parse_int(args[5])
        count = parse_int(args[6])
    if math.isinf(min_score) and min_score < 0:
        min_score = -math.inf
    members = zset.range_by_score(min_score, max_score, offset, count)
    return members
