"""Append-only-file persistence, including the paper's audit extension.

Redis' AOF records every command that *modifies* the dataset, encoded as
RESP command arrays, and replays them at startup.  The paper's key change
(section 4.1) is ``log_reads=True``: GDPR Art. 30 requires an audit trail
of *all* interactions with personal data, so reads are appended too --
which is what "turns every read operation into a read followed by a write".

Fsync policy (``appendfsync``) reproduces Redis' three settings; the
writer is a :class:`~repro.device.append_log.LogWriter`, so the policy
is the one the audit log runs too:

* ``always``  -- flush + fsync after every command (the paper's strict
  real-time compliance: throughput falls to ~5% of baseline);
* ``everysec``-- flush after every command, fsync once per second on the
  log device's own timer, whether or not commands arrive (eventual
  compliance with a 1-second exposure window: ~30% of baseline, the 6x
  recovery the paper reports);
* ``no``      -- flush only; the OS decides when data reaches media.

The log is partitioned by the key's *home*: it is a list of *parts*,
files that each own a contiguous range of hash slots.  It starts as one
part, the device's own file, owning every slot; the first rewrite that
names keys (Art. 17's) splits it, once its records exceed
:data:`PART_BYTES`, into parts listed by a manifest file.  A key's home
is a hash slot (:func:`repro.cluster.slots.slot_for_key`): its owner's,
when the GDPR layer named the owner (:meth:`AofWriter.name_owner`)
before the key's first record, else its own -- the rule Redis Cluster's
hash tags apply to related keys.  A home is sticky: every later record
of the key goes there, whoever owns it by then.  So a key's whole
history -- every write, logged read, deadline, metadata column and
delete -- lives in the one part owning its home, and so does a data
subject's: deleted data leaves the log by rewriting that part alone.
Art. 17 rewrites the part that holds the subject, not the store
(section 4.3's "deleted keys persist in the AOF until a rewrite").  A
record naming keys of several parts (a multi-key ``DEL``, a variadic
``GDPRMETA``) is written as one fragment per part.  A part is rewritten
from the keyspace, from the keys it has logged, and splits again while
its live records exceed :data:`PART_BYTES`; a key the rewrite drops
loses its home with it.  Every rewrite commits the same way: new files,
one barrier, one rename (see :meth:`AofWriter.rewrite`).
"""

from __future__ import annotations

from binascii import crc_hqx
from bisect import bisect_right
from itertools import chain
from operator import attrgetter, itemgetter
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple)

from ..cluster.slots import NUM_SLOTS, slot_for_key
from ..common.clock import Clock
from ..common.errors import PersistenceError
from ..common.resp import CRLF, RespDecoder, encode_command
from ..device.append_log import AppendLog, FsyncPolicy, LogWriter
from .commands import spec_of

#: A rewrite splits a part whose live records exceed this many bytes
#: into parts holding at most this many bytes of records (plus a
#: ``SELECT`` per database; one hash slot's records are never split).
PART_BYTES = 32 * 1024

#: ``SELECT 0``, put between parts in the one stream :meth:`AofWriter.
#: read_all` returns when some part selects databases: each part's
#: stream starts in database 0.
_SELECT_0 = encode_command(b"SELECT", b"0")
_SELECT_MARK = b"$6\r\nSELECT\r\n"


_FIRST = attrgetter("first")


class _Part:
    """One part file: the hash slots from ``first`` up to the next part's
    first slot, the keys it has logged (by database), the database its
    stream selected last, and the ``hash()`` of every argument its
    records carry (keys, values, options, ``SELECT`` indexes, metadata
    owners and purposes): the index that tells a split log's residual
    check which parts can mention a key.  Like the key sets, it is kept
    up to date while the log is split and rebuilt from the part when a
    writer opens a split device; the unsplit log's one part has none."""

    __slots__ = ("first", "file", "keys", "selected", "hashes")

    def __init__(self, first: int, file: str,
                 keys: Optional[Dict[int, Set[bytes]]] = None,
                 selected: int = 0,
                 hashes: Optional[Set[int]] = None) -> None:
        self.first = first
        self.file = file
        self.keys: Dict[int, Set[bytes]] = keys if keys is not None else {}
        self.selected = selected
        self.hashes: Set[int] = hashes if hashes is not None else set()


class AofWriter(LogWriter):
    """Feeds executed commands into an :class:`AppendLog`, fsynced by
    its :class:`~repro.device.append_log.LogWriter` policy
    (:meth:`post_command` after each command, :meth:`tick` from the
    device's timer under ``everysec``).

    ``record_cost`` is the per-record CPU+syscall cost charged to the clock
    (see ``repro.bench.calibration`` for the derivation), once per logged
    command however many parts it reaches; the fsync cost is charged by
    the underlying log's latency model.

    Every file of the log is a file of ``log``, and every byte reaches it
    through the device's own ``append``.  A writer built over a device
    reads its manifest (a device without one holds one part: its own
    file), rebuilds each part's key sets and argument index from the
    part's bytes, cuts a truncated final record from each part (so that
    the next record follows the last whole one), gives each key a home
    in the part that holds its history, and
    removes files the manifest does not name (what a crash mid-rewrite
    leaves behind).
    """

    def __init__(self, log: AppendLog, clock: Clock,
                 policy: FsyncPolicy,
                 log_reads: bool = False,
                 record_base_cost: float = 0.0,
                 record_per_byte_cost: float = 0.0) -> None:
        super().__init__(log, clock, policy)
        self.log_reads = log_reads
        self.record_base_cost = record_base_cost
        self.record_per_byte_cost = record_per_byte_cost
        #: Bytes the last :meth:`rewrite` wrote (Redis'
        #: ``aof_rewrite_base_size``, reported by INFO).
        self.base_size = 0
        self.records_written = 0
        self.reads_logged = 0
        #: Parts written by rewrites, and their bytes.
        self.parts_rewritten = 0
        self.bytes_rewritten = 0
        self._manifest_file = log.name + ".manifest"
        #: The parts by first slot: until a rewrite splits the log, one
        #: part, the device's own file, owning every slot.
        self._parts: List[_Part] = []
        self._firsts: List[int] = []
        #: key -> its home slot where that is not simply the key's own:
        #: a named owner's slot, or a recovered key's slot in its part.
        self._homes: Dict[bytes, int] = {}
        #: key -> its named owner's slot, for the keys named without a
        #: home.  In a split log, taken by the key's next record (which
        #: homes it there if it is the key's first) or dropped by the
        #: next rewrite; in an unsplit log, the slot of the owner named
        #: last, which the split places the key by.
        self._named: Dict[bytes, int] = {}
        manifest = self._manifest()
        self._adopt([_Part(first, file) for first, file in manifest])
        self._next_part = 1 + max([int(file.rsplit(".", 1)[1])
                                   for _, file in manifest
                                   if file != log.name], default=0)
        ends = self._firsts[1:] + [NUM_SLOTS]
        split = self.split
        files = self.part_files()
        for part, end, data in zip(self._parts, ends,
                                   log.read_files(files)):
            commands, torn = _decode(data)
            if torn:
                log.open(part.file)
                log.truncate(len(data) - torn)
            db = 0
            hashes = part.hashes
            for args in commands:
                name = args[0].upper()
                if split:
                    hashes.update(map(hash, args[1:]))
                if name == b"SELECT":
                    db = int(args[1])
                else:
                    part.keys.setdefault(db, set()).update(
                        spec_of(name).keys(args))
            part.selected = db
            # A key outside its own slot's part was homed by its
            # owner: home it in this part's range, spread by key.
            width = end - part.first
            for logged in part.keys.values():
                for key in logged:
                    slot = _slot(key)
                    if not part.first <= slot < end:
                        self._homes[key] = part.first + slot % width
        self._sweep()

    @property
    def split(self) -> bool:
        """Whether the log is split into parts under a manifest (else it
        is one part, the device's own file)."""
        return self._parts[0].file != self.log.name

    @property
    def homes(self) -> Dict[bytes, int]:
        """key -> home slot, for the keys a split places outside their
        own slot: the homes of a split log, the named owners' slots of
        an unsplit one."""
        return self._homes if self.split else self._named

    # -- the write path -------------------------------------------------------

    def name_owner(self, key: bytes, owner: str) -> None:
        """Name ``key``'s owner before the command that writes it: if
        that command's record is the key's first, the key's home is the
        owner's slot, so a subject's keys share one part.  A key that
        already has records keeps its home."""
        owner = owner.encode("utf-8")
        slot = (slot_for_key(owner) if b"{" in owner
                else crc_hqx(owner, 0) % NUM_SLOTS)
        if key not in self._homes:
            self._named[key] = slot

    def feed_command(self, db_index: int, args: Sequence[bytes],
                     is_write: bool) -> None:
        """Append one executed command (called after successful execution)."""
        if not is_write and not self.log_reads:
            return
        record = encode_command(*args)
        if self.record_base_cost or self.record_per_byte_cost:
            self.clock.advance(self.record_base_cost
                               + len(record) * self.record_per_byte_cost)
        part = self._parts[0]
        if part.file == self.log.name:
            # The unsplit log: one part, the open file, whose key sets
            # no rewrite reads.
            if db_index != part.selected:
                select = encode_command(b"SELECT", str(db_index).encode())
                self.log.append(select)
                part.selected = db_index
            self.log.append(record)
        else:
            self._feed_parts(db_index, args, record)
        self.records_written += 1
        if not is_write:
            self.reads_logged += 1

    def feed_laid(self, db_index: int, key: bytes, statements: bytes,
                  hashes: Set[int]) -> None:
        """Append one record as a log rewrite writes it, laid out by
        :func:`lay_record`, as one write."""
        if self.record_base_cost or self.record_per_byte_cost:
            self.clock.advance(self.record_base_cost
                               + len(statements) * self.record_per_byte_cost)
        if self.split:
            self._append(self._route(key), db_index, statements, (key,),
                         hashes)
        else:
            part = self._parts[0]
            if db_index != part.selected:
                self.log.append(encode_command(b"SELECT", b"%d" % db_index))
                part.selected = db_index
            self.log.append(statements)
        self.records_written += 1

    def _feed_parts(self, db_index: int, args: Sequence[bytes],
                    record: bytes) -> None:
        """Append ``record`` to the part owning its keys, or one fragment
        to each owning part: the command with that part's keys (and the
        arguments each key carries; multi-key commands carry nothing
        after their last key).  A record without key positions (a
        logged ``KEYS`` or ``RANGE``) goes to the first part."""
        spec = spec_of(args[0].upper())
        keys = spec.keys(args)
        if len(keys) < 2:
            self._append(self._route(keys[0]) if keys else self._parts[0],
                         db_index, record, keys, map(hash, args[1:]))
            return
        first, _, step = spec.key_spec
        groups: Dict[_Part, List[bytes]] = {}
        for at in range(first, first + len(keys) * step, step):
            groups.setdefault(self._route(args[at]), []).extend(
                args[at:at + step])
        if len(groups) == 1:
            for part in groups:
                self._append(part, db_index, record, keys,
                             map(hash, args[1:]))
            return
        head = args[:first]
        for part, tail in groups.items():
            self._append(part, db_index, encode_command(*head, *tail),
                         tail[::step], map(hash, chain(head[1:], tail)))

    def _append(self, part: _Part, db_index: int, data: bytes,
                keys: Iterable[bytes], hashes: Iterable[int]) -> None:
        """Append ``data`` to ``part``, and its ``keys`` and argument
        ``hashes`` to the part's key set and index."""
        log = self.log
        log.open(part.file)
        if db_index != part.selected:
            index = b"%d" % db_index
            log.append(encode_command(b"SELECT", index))
            part.hashes.add(hash(index))
            part.selected = db_index
        log.append(data)
        part.hashes.update(hashes)
        logged = part.keys.get(db_index)
        if logged is None:
            part.keys[db_index] = set(keys)
        else:
            logged.update(keys)

    def _part_of(self, key: bytes) -> _Part:
        """The part for ``key``'s history: its home's."""
        home = self._homes.get(key)
        if home is None:
            home = _slot(key)
        return self._parts[bisect_right(self._firsts, home) - 1]

    def _route(self, key: bytes) -> _Part:
        """:meth:`_part_of` for a record of ``key`` about to be written:
        a key without a home takes the named owner's slot, unless it
        already has records under its own."""
        home = self._homes.get(key)
        if home is None:
            home = _slot(key)
            named = self._named.pop(key, None) if self._named else None
            if named is not None and self._holder(key) is None:
                home = self._homes[key] = named
        return self._parts[bisect_right(self._firsts, home) - 1]

    def _holder(self, key: bytes) -> Optional[_Part]:
        """:meth:`_part_of` ``key``, if that part has logged the key."""
        part = self._part_of(key)
        for logged in part.keys.values():
            if key in logged:
                return part
        return None

    # -- rewriting ------------------------------------------------------------

    def rewrite(self, keyspace, keys: Optional[Iterable[bytes]] = None
                ) -> int:
        """Rewrite the log from ``keyspace`` (a storage engine); returns
        the bytes written.

        With ``keys`` None, every part: the whole keyspace is laid out
        afresh, into one part while the log is unsplit (what
        BGREWRITEAOF writes), else into parts of at most
        :data:`PART_BYTES`.  With ``keys``, only the parts that have
        logged them (with none, nothing is written), each from the
        records of the keys it has logged and split while over
        :data:`PART_BYTES`; the first such rewrite splits an unsplit
        log (unless its records fit in one part).

        Every rewrite commits through :meth:`_commit`: the new files,
        one barrier, one rename, then the replaced files are removed.
        """
        if keys is not None:
            keys = list(keys)
            if not keys:
                return 0
        return self._rewrite(keyspace, keys, self.homes,
                             self.split or keys is not None)

    def lay_out(self, keyspace, homes: Mapping[bytes, int]) -> int:
        """Write ``keyspace`` afresh into this log, placed by ``homes``
        (another log's :attr:`homes`): the layout of a split log's whole
        rewrite, committed through :meth:`_commit`.  A backup generation
        is written this way, so a scrub of a subject rewrites the part
        that holds them, as an erasure of the live log does."""
        return self._rewrite(keyspace, None, dict(homes), True)

    def _rewrite(self, keyspace, keys: Optional[List[bytes]],
                 homes: Dict[bytes, int], cut: bool) -> int:
        """:meth:`rewrite` of ``keys`` (None: every part), placing keys by
        ``homes``; a whole layout is cut into parts when ``cut``."""
        self._sweep()
        select = keyspace.database_count > 1
        split = self.split
        whole = keys is None or not split
        if whole:
            retired = self._parts
            born = _layout(keyspace.snapshot_records(), select, 0, cut,
                           homes)
        else:
            # Only a part that has logged a key holds a trace of it.
            retired = self._holders(keys)
            if not retired:
                return 0
            born = []
            for part in retired:
                born += _layout(
                    {db: keyspace.records_of(db, sorted(names))
                     for db, names in part.keys.items()},
                    select, part.first, True, homes)
        size = sum([len(data) for _, data, _, _, _ in born])
        try:
            self._commit(retired, born)
        finally:
            if not self.split:
                self.log.open(self.log.name)
        # A key the rewrite did not lay out has no record left: its
        # home goes with it.
        if homes:
            kept = set().union(*[logged for _, _, names, _, _ in born
                                 for logged in names.values()])
            if whole:
                homes = {key: homes[key] for key in kept.intersection(homes)}
            else:
                for part in retired:
                    for logged in part.keys.values():
                        for key in logged.difference(kept):
                            homes.pop(key, None)
        if self.split:
            self._homes, self._named = homes, {}
        else:
            self._named = homes
        self.parts_rewritten += len(born)
        self.bytes_rewritten += size
        self.base_size = size
        return size

    def _commit(self, retired: List[_Part], born: List[Tuple]) -> None:
        """Swap the ``born`` parts in for the ``retired`` ones: write the
        new files, make them durable with one barrier, rename -- the
        commit point -- and remove the replaced files.  One part replaced
        by one part starting at the same slot (an unsplit log's every
        rewrite, an erasure's one part) is written to a temporary file
        renamed over the old part's name, and the manifest is untouched;
        otherwise the new parts get fresh names and a new manifest lists
        them, renamed over the old one.  A crash before the rename
        recovers the old log, one after it the new one."""
        log = self.log
        one = len(born) == 1 and len(retired) == 1 \
            and born[0][0] == retired[0].first
        parts = [part for part in self._parts if part not in retired]
        for first, data, keys, selected, hashes in born:
            if one:
                file = retired[0].file
                log.open(file + ".tmp")
            else:
                file = f"{log.name}.{self._next_part}"
                self._next_part += 1
                log.open(file)
            log.append(data)
            # The unsplit log keeps no index (see mentioned_keys).
            parts.append(_Part(first, file, keys, selected,
                               hashes if file != log.name else None))
        parts.sort(key=_FIRST)
        target = retired[0].file if one else self._manifest_file
        if not one:
            log.open(target + ".tmp")
            log.append("".join([f"{part.first} {part.file}\n"
                                for part in parts]).encode("ascii"))
        log.flush_and_fsync()
        log.rename(target)
        self._adopt(parts)
        if not one:
            log.remove([part.file for part in retired])

    def _adopt(self, parts: List[_Part]) -> None:
        self._parts = parts
        self._firsts = [part.first for part in parts]

    def _sweep(self) -> None:
        """Remove every file the log does not use (a crashed or failed
        rewrite's leftovers)."""
        live = self.part_files()
        if self.split:
            live.append(self._manifest_file)
        self.log.open(live[0])
        leftovers = [name for name in self.log.files() if name not in live]
        if leftovers:
            self.log.remove(leftovers)

    # -- the one reader -------------------------------------------------------

    def _manifest(self) -> List[Tuple[int, str]]:
        """The device's manifest: ``(first slot, file)`` per part.  A
        device without one holds one part, its own file."""
        if self._manifest_file not in self.log.files():
            return [(0, self.log.name)]
        lines = self.log.read_all(self._manifest_file).decode(
            "ascii").splitlines()
        entries = [line.split(" ", 1) for line in lines]
        return [(int(first), file) for first, file in entries]

    def part_files(self, keys: Optional[Iterable[bytes]] = None
                   ) -> List[str]:
        """The log's part files in slot order (what the manifest lists:
        it is renamed into place before the writer adopts a new list);
        with ``keys``, only the parts that have logged some of them --
        the parts a rewrite of those keys replaces."""
        parts = self._parts if keys is None else self._holders(keys)
        return [part.file for part in parts]

    def _holders(self, keys: Iterable[bytes]) -> List[_Part]:
        """The parts that have logged some of ``keys``, in slot order."""
        holders = set(map(self._holder, keys))
        return [part for part in self._parts if part in holders]

    def _stream(self, durable: bool) -> bytes:
        datas = self.log.read_files(self.part_files(), durable)
        if len(datas) > 1 and any([_SELECT_MARK in data for data in datas]):
            return _SELECT_0.join(datas)
        return b"".join(datas)

    def read_all(self) -> bytes:
        """The whole log as one command stream, its parts in slot order
        (what replay, recovery and residual checks read)."""
        return self._stream(durable=False)

    def read_durable(self) -> bytes:
        """:meth:`read_all` as a power loss right now would leave it."""
        return self._stream(durable=True)

    def mentioned_keys(self, keys: Iterable[bytes]) -> Set[bytes]:
        """Which of ``keys`` are an argument of some record in some part
        (:func:`mentioned_keys` of each part, a whole command stream).
        Only a suspect part is read and decoded: in a split log, one
        whose index holds some key's ``hash()`` (a collision costs a
        decode, never a wrong answer), so the check reads no part when
        no part mentions the keys; in an unsplit log, which keeps no
        index, the one file if it holds some key's framed bytes (a scan
        in place)."""
        keys = list(keys)
        found: Set[bytes] = set()
        if self.split:
            wanted = set(map(hash, keys))
            suspects = [part.file for part in self._parts
                        if not wanted.isdisjoint(part.hashes)]
        else:
            suspects = self.log.holding(self.part_files(),
                                        [CRLF + key + CRLF for key in keys])
        if not suspects:
            return found
        for data in self.log.read_files(suspects):
            found |= mentioned_keys(data, keys)
        return found

    # -- exposure accounting ------------------------------------------------------

    def unsynced_bytes(self) -> int:
        """Bytes that a power loss right now would lose -- the 'one second
        worth of logs' exposure the paper describes for everysec."""
        return self.log.exposed_bytes(self.part_files())


def _slot(key: bytes) -> int:
    """:func:`~repro.cluster.slots.slot_for_key` of a ``bytes`` key, one
    call for the common key without a hash tag (which hashes whole)."""
    if b"{" in key:
        return slot_for_key(key)
    return crc_hqx(key, 0) % NUM_SLOTS


def replay_commands(data: bytes,
                    tolerate_truncated_tail: bool = True) -> List[List[bytes]]:
    """Decode an AOF byte stream into a list of command argument vectors.

    A clean prefix followed by an incomplete final record is the normal
    crash shape; with ``tolerate_truncated_tail`` (Redis'
    ``aof-load-truncated yes``) the complete prefix is returned.  Bytes
    that are structurally invalid raise :class:`PersistenceError`.
    """
    commands, torn = _decode(data)
    if torn and not tolerate_truncated_tail:
        raise PersistenceError(
            f"AOF has {torn} bytes of truncated tail")
    return commands


def _decode(data: bytes) -> Tuple[List[List[bytes]], int]:
    """The complete records of an AOF byte stream, and the length of the
    truncated tail after them (0 for a clean stream)."""
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
    return commands, decoder.buffered


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


def image(keyspace) -> bytes:
    """The whole keyspace of ``keyspace`` (a storage engine) as one
    command stream: the one-part layout of its records, which is what
    BGREWRITEAOF writes on an unsplit log.  It is the one whole-keyspace
    format: a full sync ships it, and replaying it into an empty store
    of the same engine recreates the keyspace, each deadline at the
    millisecond the log writes."""
    ((_, data, _, _, _),) = _layout(
        keyspace.snapshot_records(), keyspace.database_count > 1, 0, False,
        {})
    return data


# A record's statements, one format call each: byte-for-byte
# ``encode_command(b"SET", key, value)``, ``(b"SET", key, value,
# b"PXAT", millis)``, ``(b"PEXPIREAT", key, millis)`` and
# ``(b"GDPRMETA", key, owner, purposes)`` for ``bytes`` arguments, so a
# compacted string record costs no Python call.
SET_STATEMENT = b"*3\r\n$3\r\nSET\r\n$%d\r\n%b\r\n$%d\r\n%b\r\n"
SET_PXAT_STATEMENT = (b"*5\r\n$3\r\nSET\r\n$%d\r\n%b\r\n$%d\r\n%b\r\n"
                      b"$4\r\nPXAT\r\n$%d\r\n%b\r\n")
PEXPIREAT_STATEMENT = b"*3\r\n$9\r\nPEXPIREAT\r\n$%d\r\n%b\r\n$%d\r\n%b\r\n"
GDPRMETA_STATEMENT = (b"*4\r\n$8\r\nGDPRMETA\r\n$%d\r\n%b\r\n"
                      b"$%d\r\n%b\r\n$%d\r\n%b\r\n")


def _container_command(key: bytes, value) -> Tuple[bytes, ...]:
    """The one command that recreates a container value, as its
    arguments: hash fields in stored order, sorted-set pairs as ``score
    member``."""
    if isinstance(value, dict):
        return (b"HSET", key, *chain.from_iterable(value.items()))
    flat: List[bytes] = [b"ZADD", key]
    for member, score in value.items():
        flat.extend((repr(score).encode("ascii"), member))
    return tuple(flat)


def lay_record(db_index: int, record: Tuple
               ) -> Tuple[int, bytes, bytes, Set[int]]:
    """One ``(key, value, expire_at, metadata)`` record of database
    ``db_index`` as a log rewrite writes it (see :func:`_layout`):
    ``(db_index, key, statements, argument hashes)``, the arguments of
    :meth:`AofWriter.feed_laid` -- its bytes taken now, while the value
    may still change before they are appended."""
    ((_, statements, _, _, hashes),) = _layout(
        {db_index: (record,)}, False, 0, False, {})
    return db_index, record[0], statements, hashes


def _layout(databases: Mapping[int, Iterable[Tuple]], select: bool,
            first: int, split: bool, homes: Mapping[bytes, int]
            ) -> List[Tuple[int, bytes, Dict[int, Set[bytes]], int,
                            Set[int]]]:
    """The parts that recreate ``databases`` -- database index -> its
    ``(key, value, expire_at, metadata)`` records, all homed at slots
    from ``first`` on -- as ``(first slot, stream, keys by database,
    database selected last, argument hashes)`` (see :class:`_Part`).

    Per record: the value's command -- a string with a deadline is one
    ``SET..PXAT``, a container's deadline a ``PEXPIREAT`` after it --
    then ``GDPRMETA`` for metadata columns.  The records make one part
    starting at ``first``, in the order given -- unless ``split`` and
    they exceed :data:`PART_BYTES`: then they are sorted by home (a key's
    slot in ``homes``, else its own) and cut, between slots, into parts
    of at most that size.  Within a part, with ``select``, each database
    opens with its ``SELECT``; without it, every record goes to
    database 0.
    """
    entries = []
    append = entries.append
    size = 0
    for index, records in sorted(databases.items()):
        for key, value, expire_at, metadata in records:
            if expire_at is None:
                if isinstance(value, bytes):
                    chunk = SET_STATEMENT % (len(key), key, len(value),
                                             value)
                    words = (key, value)
                else:
                    command = _container_command(key, value)
                    chunk = encode_command(*command)
                    words = command[1:]
            else:
                # As the command log writes it: the largest m with
                # m / 1000 <= expire_at, so a PXAT m deadline stays m.
                whole = int(expire_at * 1000)
                millis = b"%d" % (whole + ((whole + 1) / 1000 <= expire_at))
                if isinstance(value, bytes):
                    chunk = SET_PXAT_STATEMENT % (len(key), key, len(value),
                                                  value, len(millis), millis)
                    words = (key, value, b"PXAT", millis)
                else:
                    command = _container_command(key, value)
                    chunk = encode_command(*command) + \
                        PEXPIREAT_STATEMENT % (len(key), key, len(millis),
                                               millis)
                    words = command[1:] + (millis,)
            if metadata is not None:
                owner = metadata[0].encode("utf-8")
                purposes = metadata[1].encode("utf-8")
                chunk += GDPRMETA_STATEMENT % (len(key), key, len(owner),
                                               owner, len(purposes),
                                               purposes)
                words += (owner, purposes)
            # (home, database, key, statements, arguments): the home is
            # worked out only for a split, and stands as ``first`` until
            # then.
            append((first, index, key, chunk, words))
            size += len(chunk)
    groups = [entries]
    if split and size > PART_BYTES:
        ranked = []
        for _, index, key, chunk, words in entries:
            home = homes.get(key)
            ranked.append((_slot(key) if home is None else home, index, key,
                           chunk, words))
        entries = sorted(ranked, key=itemgetter(0))
        group: List[Tuple] = []
        groups = [group]
        # Bytes in ``group``; where in it the current slot's records
        # start, and the bytes before them.
        filled = run_at = run_filled = 0
        slot = -1
        for entry in entries:
            grow = len(entry[3])
            if entry[0] != slot:
                slot = entry[0]
                run_at, run_filled = len(group), filled
            if filled + grow > PART_BYTES and run_at:
                group = group[run_at:]
                del groups[-1][run_at:]
                groups.append(group)
                filled -= run_filled
                run_at = run_filled = 0
            group.append(entry)
            filled += grow
    parts = []
    for group in groups:
        by_db: Dict[int, List[bytes]] = {}
        keys: Dict[int, Set[bytes]] = {}
        hashes: Set[int] = set()
        for _, index, key, chunk, words in group:
            by_db.setdefault(index, []).append(chunk)
            keys.setdefault(index, set()).add(key)
            hashes.update(map(hash, words))
        chunks: List[bytes] = []
        selected = 0
        for index in sorted(by_db):
            if select:
                chunks.append(encode_command(b"SELECT", b"%d" % index))
                hashes.add(hash(b"%d" % index))
                selected = index
            chunks += by_db[index]
        start = first if group is groups[0] else group[0][0]
        parts.append((start, b"".join(chunks), keys, selected, hashes))
    return parts
