"""Administrative and server commands."""

from __future__ import annotations

from typing import List

from ..common.resp import RespError, SimpleString
from .commands import (
    BROADCAST,
    CONTROL,
    CommandContext,
    command,
    parse_int,
)

OK = SimpleString("OK")


@command("PING", arity=-1, routing=CONTROL)
def cmd_ping(ctx: CommandContext, args: List[bytes]):
    if len(args) > 2:
        raise RespError("ERR wrong number of arguments for 'ping' command")
    if len(args) == 2:
        return args[1]
    return SimpleString("PONG")


@command("SELECT", arity=2, routing=CONTROL)
def cmd_select(ctx: CommandContext, args: List[bytes]) -> SimpleString:
    index = parse_int(args[1], "ERR invalid DB index")
    if not 0 <= index < len(ctx.store.databases):
        raise RespError("ERR DB index is out of range")
    ctx.session.db_index = index
    return OK


@command("DBSIZE", arity=1, routing=BROADCAST)
def cmd_dbsize(ctx: CommandContext, args: List[bytes]) -> int:
    db = ctx.db
    return sum(1 for key in db.keys()
               if not ctx.store.key_is_expired(db, key, ctx.now))


@command("FLUSHDB", arity=1, write=True, routing=BROADCAST)
def cmd_flushdb(ctx: CommandContext, args: List[bytes]) -> SimpleString:
    dropped = ctx.store.flush_database(ctx.db)
    if dropped:
        ctx.mark_dirty(dropped)
    else:
        ctx.mark_dirty()
    return OK


@command("FLUSHALL", arity=1, write=True, routing=BROADCAST)
def cmd_flushall(ctx: CommandContext, args: List[bytes]) -> SimpleString:
    dropped = 0
    for db in ctx.store.databases:
        dropped += ctx.store.flush_database(db)
    ctx.mark_dirty(max(dropped, 1))
    return OK


@command("INFO", arity=-1, routing=CONTROL)
def cmd_info(ctx: CommandContext, args: List[bytes]) -> bytes:
    return ctx.store.info_text().encode("utf-8")


@command("SLOWLOG", arity=-2, routing=CONTROL)
def cmd_slowlog(ctx: CommandContext, args: List[bytes]):
    sub = args[1].upper()
    if sub == b"GET":
        count = 10
        if len(args) == 3:
            count = parse_int(args[2])
        entries = ctx.store.slowlog.get(count)
        reply = []
        for entry in entries:
            reply.append([
                entry.entry_id,
                int(entry.timestamp),
                int(entry.duration * 1e6),
                [bytes(a) for a in entry.args],
            ])
        return reply
    if sub == b"RESET":
        ctx.store.slowlog.reset()
        return OK
    if sub == b"LEN":
        return len(ctx.store.slowlog)
    raise RespError("ERR unknown SLOWLOG subcommand")
