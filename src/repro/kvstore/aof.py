"""Append-only-file persistence, including the paper's audit extension.

Redis' AOF records every command that *modifies* the dataset, encoded as
RESP command arrays, and replays them at startup.  The paper's key change
(section 4.1) is ``log_reads=True``: GDPR Art. 30 requires an audit trail
of *all* interactions with personal data, so reads are appended too --
which is what "turns every read operation into a read followed by a write".

Fsync policy (``appendfsync``) reproduces Redis' three settings:

* ``always``  -- flush + fsync after every command (the paper's strict
  real-time compliance: throughput falls to ~5% of baseline);
* ``everysec``-- flush after every command, fsync at most once per second
  (eventual compliance with a 1-second exposure window: ~30% of baseline,
  the 6x recovery the paper reports);
* ``no``      -- flush only; the OS decides when data reaches media.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Iterable, List, Mapping, Sequence, Set, Tuple

from ..common.clock import Clock
from ..common.errors import PersistenceError
from ..common.resp import CRLF, RespDecoder, encode_command
from ..device.append_log import AppendLog


class FsyncPolicy(enum.Enum):
    ALWAYS = "always"
    EVERYSEC = "everysec"
    NO = "no"

    @classmethod
    def parse(cls, text: str) -> "FsyncPolicy":
        try:
            return cls(text.lower())
        except ValueError:
            raise PersistenceError(
                f"unknown appendfsync policy {text!r}; "
                "choose always, everysec, or no")


class AofWriter:
    """Feeds executed commands into an :class:`AppendLog`.

    ``record_cost`` is the per-record CPU+syscall cost charged to the clock
    (see ``repro.bench.calibration`` for the derivation); the fsync cost is
    charged by the underlying log's latency model.
    """

    def __init__(self, log: AppendLog, clock: Clock,
                 policy: FsyncPolicy = FsyncPolicy.EVERYSEC,
                 log_reads: bool = False,
                 record_base_cost: float = 0.0,
                 record_per_byte_cost: float = 0.0) -> None:
        self.log = log
        self.clock = clock
        self.policy = policy
        self.log_reads = log_reads
        self.record_base_cost = record_base_cost
        self.record_per_byte_cost = record_per_byte_cost
        self._selected_db = 0
        self._last_fsync = clock.now()
        #: Log size right after the last :meth:`rewrite` (Redis'
        #: ``aof_rewrite_base_size``, reported by INFO).
        self.base_size = 0
        self.records_written = 0
        self.reads_logged = 0

    # -- the write path -------------------------------------------------------

    def feed_command(self, db_index: int, args: Sequence[bytes],
                     is_write: bool) -> None:
        """Append one executed command (called after successful execution)."""
        if not is_write and not self.log_reads:
            return
        if db_index != self._selected_db:
            select = encode_command(b"SELECT", str(db_index).encode())
            self.log.append(select)
            self._selected_db = db_index
        record = encode_command(*args)
        if self.record_base_cost or self.record_per_byte_cost:
            self.clock.advance(self.record_base_cost
                               + len(record) * self.record_per_byte_cost)
        self.log.append(record)
        self.records_written += 1
        if not is_write:
            self.reads_logged += 1

    def post_command(self) -> None:
        """Flush the application buffer; fsync if policy is ALWAYS.

        Mirrors Redis' flushAppendOnlyFile call at the end of each event
        loop iteration.
        """
        moved = self.log.flush()
        if self.policy is FsyncPolicy.ALWAYS and moved:
            self.log.fsync()
            self._last_fsync = self.clock.now()

    def tick(self, now: float) -> None:
        """Background fsync for the EVERYSEC policy."""
        if self.policy is FsyncPolicy.EVERYSEC and now - self._last_fsync >= 1.0:
            self.log.flush()
            self.log.fsync()
            self._last_fsync = now

    def rewrite(self, databases: Mapping[int, Iterable[Tuple]],
                select: bool) -> int:
        """Replace the log with the stream that recreates ``databases``
        (see :func:`encode_records`); returns its size in bytes.  The
        writer is left on the database that stream selected last, so the
        next write to any other database opens with its ``SELECT``."""
        data, self._selected_db = encode_records(databases, select)
        self.log.replace(data)
        self.base_size = len(data)
        return self.base_size

    # -- exposure accounting ------------------------------------------------------

    def unsynced_bytes(self) -> int:
        """Bytes that a power loss right now would lose -- the 'one second
        worth of logs' exposure the paper describes for everysec."""
        return (self.log.total_length - self.log.durable_length)


def replay_commands(data: bytes,
                    tolerate_truncated_tail: bool = True) -> List[List[bytes]]:
    """Decode an AOF byte stream into a list of command argument vectors.

    A clean prefix followed by an incomplete final record is the normal
    crash shape; with ``tolerate_truncated_tail`` (Redis'
    ``aof-load-truncated yes``) the complete prefix is returned.  Bytes
    that are structurally invalid raise :class:`PersistenceError`.
    """
    decoder = RespDecoder()
    decoder.feed(data)
    commands: List[List[bytes]] = []
    try:
        while True:
            found, value = decoder.next_value()
            if not found:
                break
            if (not isinstance(value, list) or not value
                    or not all(isinstance(a, bytes) for a in value)):
                raise PersistenceError(
                    f"AOF record is not a command array: {value!r}")
            commands.append(value)
    except PersistenceError:
        raise
    except Exception as exc:
        raise PersistenceError(f"corrupt AOF stream: {exc}") from exc
    if decoder.buffered and not tolerate_truncated_tail:
        raise PersistenceError(
            f"AOF has {decoder.buffered} bytes of truncated tail")
    return commands


def mentioned_keys(data: bytes, keys: Iterable[bytes]) -> Set[bytes]:
    """Which of ``keys`` equal an argument of some record in the stream?

    Same result as a full decode -- ``{k for k in keys if any(k in
    args[1:] for args in replay_commands(data))}`` -- at the price of one
    C-speed substring scan per key and **at most one** decode for all of
    them.  A bulk argument equal to ``key`` is always framed
    ``CRLF key CRLF`` whatever its length header spells, so a stream
    without those bytes cannot mention the key: a conclusive *no*.  A hit
    proves nothing (a value may embed the same bytes, a truncated tail
    may hold them), so only then is the stream decoded to confirm.  The
    one visible difference: a corrupt stream raises
    :class:`PersistenceError` only when some key's bytes occur in it.
    """
    suspects = {key for key in keys if CRLF + key + CRLF in data}
    if not suspects:
        return suspects
    found: Set[bytes] = set()
    for args in replay_commands(data):
        found.update(suspects.intersection(args[1:]))
    return found


def contains_key(data: bytes, key: bytes) -> bool:
    """Does any record in the AOF stream mention ``key``?

    This is the section 4.3 check: after DEL, the key still *persists in
    the AOF* until a rewrite compacts it away -- the paper calls this out
    as antithetical to GDPR erasure.  Same result as a full decode; see
    :func:`mentioned_keys`, whose single-key case this is.
    """
    return bool(mentioned_keys(data, (key,)))


# A record's statements, one format call each: byte-for-byte
# ``encode_command(b"SET", key, value)``, ``(b"PEXPIREAT", key, b"%d" %
# millis)`` and ``(b"GDPRMETA", key, owner, purposes)`` for ``bytes``
# arguments, so a compacted string record costs no Python call.
SET_STATEMENT = b"*3\r\n$3\r\nSET\r\n$%d\r\n%b\r\n$%d\r\n%b\r\n"
PEXPIREAT_STATEMENT = b"*3\r\n$9\r\nPEXPIREAT\r\n$%d\r\n%b\r\n$%d\r\n%b\r\n"
GDPRMETA_STATEMENT = (b"*4\r\n$8\r\nGDPRMETA\r\n$%d\r\n%b\r\n"
                      b"$%d\r\n%b\r\n$%d\r\n%b\r\n")


def _container_command(key: bytes, value) -> bytes:
    """The one command that recreates a container value: hash fields in
    stored order, sorted-set pairs as ``score member``."""
    if isinstance(value, dict):
        return encode_command(b"HSET", key, *chain.from_iterable(
            value.items()))
    flat: List[bytes] = []
    for member, score in value.items():
        flat.extend((repr(score).encode("ascii"), member))
    return encode_command(b"ZADD", key, *flat)


def encode_records(databases: Mapping[int, Iterable[Tuple]],
                   select: bool) -> Tuple[bytes, int]:
    """The command stream that recreates ``databases`` -- database index
    -> its ``(key, value, expire_at, metadata)`` records -- and the
    database it leaves selected.

    Per record: the value's command, then ``PEXPIREAT`` for a deadline
    and ``GDPRMETA`` for metadata columns.  With ``select``, each
    database opens with its ``SELECT``; without it, every record goes to
    database 0.
    """
    chunks: List[bytes] = []
    append = chunks.append
    selected = 0
    for index, records in sorted(databases.items()):
        if select:
            append(encode_command(b"SELECT", b"%d" % index))
            selected = index
        for key, value, expire_at, metadata in records:
            if isinstance(value, bytes):
                append(SET_STATEMENT % (len(key), key, len(value), value))
            else:
                append(_container_command(key, value))
            if expire_at is not None:
                # As the command log writes it: the largest m with
                # m / 1000 <= expire_at, so a PXAT m deadline stays m.
                whole = int(expire_at * 1000)
                millis = b"%d" % (whole + ((whole + 1) / 1000 <= expire_at))
                append(PEXPIREAT_STATEMENT
                       % (len(key), key, len(millis), millis))
            if metadata is not None:
                owner = metadata[0].encode("utf-8")
                purposes = metadata[1].encode("utf-8")
                append(GDPRMETA_STATEMENT % (len(key), key, len(owner),
                                             owner, len(purposes), purposes))
    return b"".join(chunks), selected
