"""Append-only log file abstraction with explicit durability states.

This models how Redis' AOF interacts with the OS: ``append`` places bytes in
the *application buffer* (free), ``flush`` issues the write() syscall moving
them to the *page cache* (cheap), and ``fsync`` makes them *durable*
(expensive).  The three-state split is exactly what makes the paper's
``appendfsync always`` vs ``everysec`` experiment behave the way it does, so
the log tracks each boundary; a power loss (see
:class:`~repro.device.faults.FaultPlan`) keeps only the durable one.

A device holds named files.  One of them is *open*: ``append`` and the
single-file views (``read_all``, ``total_length``, ``read_at``, ...)
act on it.  A new device holds one file, named after the device, and
is open on it; a log split into parts
(:mod:`repro.kvstore.aof`) points the device at each part in turn with
:meth:`open`.  ``flush`` writes every file's buffer and ``fsync`` is one
barrier over every file on the device, so a commit that spans several
files costs one barrier.  A file is replaced the way a real one is:
write the new bytes to another file, make them durable, and
:meth:`rename` it over the old name.

A device runs at most one recurring timer on its clock
(:meth:`AppendLog.join_timer`): its first ``everysec`` writer registers
it, and each firing steps every live writer that joined -- so the
everysec fsync is one barrier per device per interval, whether or not
commands arrive.  A firing that falls inside a barrier scope waits for
the scope's exit, after its barriers: a request's data never becomes
durable ahead of the audit record the request's barrier makes durable.
A restarted node opens its devices anew on its own clock
(:meth:`AppendLog.reopen`): each drops the old timer, and the reopened
writer registers a new one.

Whoever waits for a barrier pays for it.  ``fsync()`` is a barrier its
caller waits for: it charges the device's fsync cost.  ``fsync(wait=
False)`` -- a timer's firing, a block seal nobody waits for -- queues
the barrier on the device and charges its caller nothing; the device is
busy with it until :attr:`AppendLog.idle_at`.  At most one barrier is
in flight: any fsync first waits out the one before it, so a queued
barrier still orders every later one.  ``flush`` and ``read_at`` never
wait.

A barrier is durable once it lands.  A waited one has landed when it
returns; a queued one lands at :attr:`AppendLog.idle_at` on the device's
clock, and until then a power loss keeps the frontiers it replaced.
What a barrier was asked to cover moves at once (so the timer does not
queue it again); what a power loss keeps -- :meth:`AppendLog.
read_durable`, ``lines(durable=True)``, :meth:`AppendLog.exposed_bytes`
-- moves when it lands.  After a power loss the device is dark: every
operation a :class:`~repro.device.faults.FaultPlan` sees raises
:class:`~repro.device.faults.PowerLoss` until :meth:`AppendLog.reopen`.
"""

from __future__ import annotations

import enum
import weakref
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence)

from ..common.clock import Clock, SimClock
from ..common.errors import DeviceIOError, PersistenceError
from .latency import ZERO, LatencyModel


class FsyncPolicy(enum.Enum):
    """When a writer's appended bytes become durable (Redis'
    ``appendfsync``): ``always`` after every operation that moved bytes
    -- or, for the operations of one barrier scope (a GDPR request),
    once at the scope's exit -- ``everysec`` at each firing of the
    device's timer, every ``interval`` seconds on the device's clock
    (ADR-0010's "up to 1 second of data can be lost"), ``no`` never
    (the OS decides).  The audit log, whose every seal is a barrier,
    takes the first two under the names SYNC and BATCH."""

    ALWAYS = "always"
    EVERYSEC = "everysec"
    NO = "no"
    SYNC = "always"
    BATCH = "everysec"

    @classmethod
    def parse(cls, text: str) -> "FsyncPolicy":
        try:
            return cls(text.lower())
        except ValueError:
            raise PersistenceError(
                f"unknown appendfsync policy {text!r}; "
                "choose always, everysec, or no")


class _File:
    """One file's bytes and frontiers (the open file keeps its own on
    the log, where the append path reads them)."""

    __slots__ = ("data", "cached", "durable")

    def __init__(self, data: bytearray, cached: int, durable: int) -> None:
        self.data = data
        self.cached = cached
        self.durable = durable


class AppendLog:
    """An append-only byte log with buffer / page-cache / durable frontiers.

    Invariant, per file: ``durable_length <= cached_length <=
    total_length``.
    """

    #: The operations a :class:`~repro.device.faults.FaultPlan` sees.
    FAULT_OPS = ("append", "flush", "fsync", "rename", "truncate",
                 "remove")

    def __init__(self, clock: Optional[Clock] = None,
                 latency: LatencyModel = ZERO,
                 name: str = "appendonly.aof") -> None:
        self.clock = clock if clock is not None else SimClock()
        self.latency = latency
        self.faults = None
        self.name = name
        # The open file: its name, bytes and frontiers.
        self.file = name
        self._data = bytearray()
        self._cached_length = 0
        self._durable_length = 0
        # Every other file, and those of them holding unwritten bytes.
        self._closed: Dict[str, _File] = {}
        self._unflushed: List[_File] = []
        # Counters for benchmarks.
        self.appends = 0
        self.syscalls = 0
        self.fsyncs = 0
        self.reads = 0
        # When the barrier in flight (one nobody waited for) lands, and
        # the durable frontiers it replaced, by ``id`` of each file's
        # bytes, which a power loss before then keeps.
        self.idle_at = 0.0
        self._replaced: Dict[int, int] = {}
        # Whether power was lost since the device was last (re)opened.
        self._dark = False
        # The barrier scope: open scopes, and whether a commit made in
        # them still waits for its fsync.
        self._scopes = 0
        self._commit_due = False
        # Run at a scope's outermost exit, still inside it and before
        # its barriers: a writer that holds a scope's records until its
        # end (a SYNC audit log's request block) writes them there.
        self.before_barrier: Optional[Callable[[], None]] = None
        # The device's timer and the writers its firings step (held
        # weakly: a writer dropped with its engine leaves with its last
        # reference); a firing that falls inside one of the device's
        # own operations waits for the operation to end (``_busy``
        # counts those in progress), one inside a barrier scope for the
        # outermost exit.
        self.timer = None
        self._tickers: List[weakref.WeakMethod] = []
        self._busy = 0
        self._fire_due = False

    # -- frontiers (of the open file) -----------------------------------------

    @property
    def total_length(self) -> int:
        return len(self._data)

    @property
    def cached_length(self) -> int:
        return self._cached_length

    @property
    def durable_length(self) -> int:
        return self._durable_length

    @property
    def unflushed_bytes(self) -> int:
        return len(self._data) - self._cached_length

    @property
    def unsynced_bytes(self) -> int:
        return self._cached_length - self._durable_length

    @property
    def in_scope(self) -> bool:
        """Whether a barrier scope is open on the device."""
        return self._scopes > 0

    def holds_unsynced(self) -> bool:
        """Whether some file holds written bytes not yet durable."""
        return self._cached_length > self._durable_length or any(
            [file.cached > file.durable for file in self._closed.values()])

    # -- files ----------------------------------------------------------------

    def files(self) -> List[str]:
        """The names of the files on the device, sorted."""
        return sorted([self.file, *self._closed])

    def open(self, name: str) -> None:
        """Point ``append`` and the open-file views at file ``name``,
        created empty if absent (no time charged)."""
        if name == self.file:
            return
        closing = _File(self._data, self._cached_length,
                        self._durable_length)
        if len(self._data) > self._cached_length:
            self._unflushed.append(closing)
        self._closed[self.file] = closing
        file = self._closed.pop(name, None)
        if file is None:
            file = _File(bytearray(), 0, 0)
        elif file in self._unflushed:
            self._unflushed.remove(file)
        self.file = name
        self._data = file.data
        self._cached_length = file.cached
        self._durable_length = file.durable

    def rename(self, target: str) -> None:
        """rename(): atomically give the open file the name ``target``,
        over any file of that name.  A metadata operation, durable as it
        returns (no time charged)."""
        if self.faults is not None:
            self.faults.step(self, "rename")
        replaced = self._closed.pop(target, None)
        if replaced in self._unflushed:
            self._unflushed.remove(replaced)
        self.file = target

    def remove(self, names: Iterable[str]) -> None:
        """unlink() each of ``names`` -- never the open file; durable as
        it returns (no time charged)."""
        if self.faults is not None:
            self.faults.step(self, "remove")
        unflushed = self._unflushed
        for name in names:
            if name == self.file or name not in self._closed:
                raise DeviceIOError(
                    f"{self.name}: cannot remove {name!r}: open or absent")
            file = self._closed.pop(name)
            if file in unflushed:
                unflushed.remove(file)

    def truncate(self, length: int) -> None:
        """ftruncate(): cut the open file to its first ``length`` bytes
        (a recovery drops a torn tail so that the next write follows
        what it kept).  Durable as it returns (no time charged)."""
        if self.faults is not None:
            self.faults.step(self, "truncate")
        if not 0 <= length <= len(self._data):
            raise DeviceIOError(
                f"{self.name}: cannot truncate {len(self._data)} bytes "
                f"to {length}")
        del self._data[length:]
        self._cached_length = min(self._cached_length, length)
        self._durable_length = min(self._durable_length, length)

    # -- operations ----------------------------------------------------------

    def append(self, data: bytes) -> None:
        """Buffer bytes in the open file's application buffer (no time
        charged)."""
        if self.faults is not None:
            self.faults.step(self, "append")
        self._data.extend(data)
        self.appends += 1

    def flush(self) -> int:
        """write() the application buffer to the page cache: the open
        file's, and any other file's left unwritten, one syscall per
        file with bytes to move.

        Returns the number of bytes moved.  Charges the write-syscall cost
        plus per-byte cost for the moved bytes.
        """
        if self.faults is not None:
            self.faults.step(self, "flush")
        self._busy += 1
        try:
            moved = self._flush_closed() if self._unflushed else 0
            pending = len(self._data) - self._cached_length
            if pending:
                self.clock.advance(self.latency.write_cost(pending))
                self._cached_length = len(self._data)
                self.syscalls += 1
                moved += pending
        finally:
            self._busy -= 1
        if self._fire_due and not self._busy:
            self._fire()
        return moved

    def _flush_closed(self) -> int:
        moved = 0
        for file in self._unflushed:
            pending = len(file.data) - file.cached
            self.clock.advance(self.latency.write_cost(pending))
            file.cached = len(file.data)
            self.syscalls += 1
            moved += pending
        self._unflushed.clear()
        return moved

    def fsync(self, wait: bool = True) -> None:
        """Durability barrier over everything in the page cache, every
        file of the device included.  It first waits out the barrier in
        flight, if one is; then the caller pays the device's fsync cost
        -- or, with ``wait=False``, leaves the barrier in flight until
        :attr:`idle_at`, when it lands, and pays nothing for it."""
        if self.faults is not None:
            self.faults.step(self, "fsync")
        clock = self.clock
        self._busy += 1
        try:
            behind = self.idle_at - clock.now()
            if behind > 0:
                clock.advance(behind)
            if wait:
                clock.advance(self.latency.fsync)
            else:
                self.idle_at = clock.now() + self.latency.fsync
                self._replaced = {id(file.data): file.durable
                                  for file in self._named(self.files())}
        finally:
            self._busy -= 1
        self._durable_length = self._cached_length
        for file in self._closed.values():
            file.durable = file.cached
        self.fsyncs += 1
        self._commit_due = False
        if self._fire_due and not self._busy:
            self._fire()

    def flush_and_fsync(self, wait: bool = True) -> None:
        """flush, then fsync (``wait`` as :meth:`fsync`'s): one operation
        to the device's timer (a firing inside the flush waits for the
        fsync's end)."""
        self._busy += 1
        try:
            self.flush()
        finally:
            self._busy -= 1
        self.fsync(wait)

    # -- the device's timer --------------------------------------------------

    def reopen(self, clock: Clock) -> None:
        """Open the device anew on ``clock``, as a node restarted after
        its process died does.  The files are what the operating system
        holds: the dead process's unwritten buffers are gone, and what
        it wrote counts as durable, as the system writes it back (a
        power loss is :meth:`~repro.device.faults.FaultPlan.power_loss`
        before the restart, which keeps only the landed bytes and leaves
        the device dark until this relights it).
        Whatever the old process had attached to the device goes too --
        its timer, cancelled, with the writers that joined it, the
        ``before_barrier`` hook, and a commit or a firing still due -- so
        the next writer to join registers a new timer on ``clock``."""
        self._durable_length = self._cached_length
        for file in self._closed.values():
            file.durable = file.cached
        self._replaced = {}
        self._lose_power()          # the unwritten buffers, and no more
        self._dark = False
        if self.timer is not None:
            self.timer.cancel()
        self.timer = None
        self._tickers = []
        self.before_barrier = None
        self._commit_due = self._fire_due = False
        self.clock = clock

    def copy(self, clock: Clock, latency: LatencyModel) -> "AppendLog":
        """A new device on ``clock`` with ``latency``, of this device's
        name, holding every byte appended to each of its files (what
        :meth:`read_files` reads), durable, and open on the same file.
        It reads this device and writes nothing to it (no time
        charged)."""
        names = self.files()
        twin = AppendLog(clock, latency, self.name)
        twin._closed = {name: _File(bytearray(data), len(data), len(data))
                        for name, data in zip(names, self.read_files(names))}
        opened = twin._closed.pop(self.file)
        twin.file, twin._data = self.file, opened.data
        twin._cached_length = twin._durable_length = len(opened.data)
        return twin

    def join_timer(self, writer, interval: float) -> None:
        """Step ``writer`` (its ``tick()``) at every firing of the
        device's one recurring timer, which the first writer to join
        registers on the device's clock at its ``interval``, for as long
        as something else holds the writer."""
        self._tickers.append(weakref.WeakMethod(writer.tick))
        if self.timer is None:
            self.timer = self.clock.every(interval, self._fire,
                                          label=f"{self.name}-timer")

    def _fire(self) -> None:
        """A firing: step every live joined writer, in the order they
        joined, and forget the dead ones -- unless one of the device's
        own operations is in progress, which then runs the firing as it
        ends, or a barrier scope is open, whose outermost exit runs it
        after its barriers (a due firing outlives a failed barrier)."""
        if self._busy or self._scopes:
            self._fire_due = True
            return
        self._fire_due = False
        ticks = [ref() for ref in self._tickers]
        self._tickers = [ref for ref, tick in zip(self._tickers, ticks)
                         if tick is not None]
        for tick in ticks:
            if tick is not None:
                tick()

    # -- the barrier scope ---------------------------------------------------

    def commit(self) -> None:
        """Ask for everything appended so far to become durable: flush
        now, and fsync now -- or, inside a :meth:`group`, once at the
        outermost scope's exit, unless some fsync comes first."""
        if self._scopes:
            self.flush()
            self._commit_due = True
        else:
            self.flush_and_fsync()

    def group(self) -> "AppendLog":
        """A barrier scope: ``with log.group():`` turns every
        :meth:`commit` inside it into one flush+fsync at the outermost
        exit, which runs even when the body raises.  Scopes nest (a
        :class:`BarrierScope` is one over several devices)."""
        return self

    def __enter__(self) -> "AppendLog":
        self._scopes += 1
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if self._scopes == 1 and self.before_barrier is not None:
                self.before_barrier()
        finally:
            self._scopes -= 1
        if self._scopes:
            return
        if self._commit_due:
            self.flush_and_fsync()
        if self._fire_due:
            self._fire()

    # -- reading -------------------------------------------------------------

    def read_all(self, name: Optional[str] = None) -> bytes:
        """Everything appended so far to file ``name`` (default: the
        open file) -- the live file's logical view."""
        if name is None:
            return bytes(self._data)
        return self.read_files([name])[0]

    def read_durable(self) -> bytes:
        """What the open file would contain after a power loss."""
        return self.read_files([self.file], durable=True)[0]

    def lines(self, durable: bool = False) -> Iterator[bytes]:
        """The open file's lines, each with its newline, one copy at a
        time (the file itself is not copied): of everything appended, or
        of the durable prefix; a final line with no newline comes last
        (no time charged)."""
        data = self._data
        end = self._kept(data, self._durable_length) if durable else len(data)
        start = 0
        while start < end:
            stop = data.find(b"\n", start, end) + 1 or end
            yield data[start:stop]
            start = stop

    def read_files(self, names: Iterable[str],
                   durable: bool = False) -> List[bytes]:
        """:meth:`read_all` (or :meth:`read_durable`) of each of
        ``names``, in order."""
        files = self._named(names)
        if durable:
            return [bytes(file.data[:self._kept(file.data, file.durable)])
                    for file in files]
        return [bytes(file.data) for file in files]

    def holding(self, names: Sequence[str],
                needles: Iterable[bytes]) -> List[str]:
        """Those of files ``names``, in order, whose bytes contain some of
        ``needles``: a substring scan of each file in place, with no
        copy (no time charged)."""
        files = self._named(names)
        hits = {index for index, file in enumerate(files)
                for needle in needles if needle in file.data}
        return [names[index] for index in sorted(hits)]

    def exposed_bytes(self, names: Iterable[str]) -> int:
        """Bytes of files ``names`` that a power loss right now would
        lose: appended but not yet durable."""
        return sum([len(file.data) - self._kept(file.data, file.durable)
                    for file in self._named(names)])

    def _named(self, names: Iterable[str]) -> List[_File]:
        closed = self._closed
        opened = _File(self._data, self._cached_length,
                       self._durable_length)
        try:
            return [opened if name == self.file else closed[name]
                    for name in names]
        except KeyError as missing:
            raise DeviceIOError(
                f"{self.name}: no file {missing.args[0]!r}") from None

    def read_at(self, offset: int, length: int) -> bytes:
        """pread(): ``length`` bytes of the open file starting at
        ``offset``, charged as one read syscall plus per-byte cost for
        the bytes returned."""
        if offset < 0 or length < 0 or offset + length > len(self._data):
            raise DeviceIOError(
                f"{self.name}: read of {length} bytes at {offset} outside "
                f"the file's {len(self._data)} bytes")
        self.clock.advance(self.latency.read_cost(length))
        self.reads += 1
        return bytes(self._data[offset:offset + length])

    # -- faults (driven by a FaultPlan) --------------------------------------

    def _kept(self, data: bytearray, durable: int) -> int:
        """The length of file ``data`` (durable up to ``durable``) that
        a power loss now keeps: ``durable``, or while the barrier in
        flight has not landed, the frontier it replaced (a file whose
        bytes are younger than the barrier has nothing durable yet, so
        a reused ``id`` changes nothing)."""
        if self.clock.now() < self.idle_at:
            return min(durable, self._replaced.get(id(data), durable))
        return durable

    def _lose_power(self) -> None:
        """Power loss: every file keeps what the barriers that landed
        made durable, and the device is dark until :meth:`reopen`."""
        self._durable_length = self._kept(self._data, self._durable_length)
        del self._data[self._durable_length:]
        self._cached_length = self._durable_length
        for file in self._closed.values():
            file.durable = file.cached = self._kept(file.data, file.durable)
            del file.data[file.durable:]
        self._replaced = {}
        self._unflushed.clear()
        self._dark = True

    def _tear(self, nbytes: int) -> None:
        """Flip the open file's final ``nbytes`` (a torn write)."""
        if nbytes <= 0 or nbytes > len(self._data):
            raise DeviceIOError("corruption span outside file")
        for i in range(len(self._data) - nbytes, len(self._data)):
            self._data[i] ^= 0xFF


class BarrierScope:
    """One barrier scope over several devices: ``with scope:`` is a
    :meth:`AppendLog.group` of each of ``logs`` (None entries are
    skipped; a device named twice is one scope).  At the outermost exit
    each device's :attr:`AppendLog.before_barrier` runs first, while
    every device is still inside the scope (a SYNC audit log seals the
    request's block there, and a timer firing meanwhile waits as any
    firing inside the scope does).  Then each device with a due commit
    pays one fsync (after a flush of any bytes still unwritten), in the
    order ``logs`` are given -- after every scope is left, so a failed
    barrier leaves no device inside one and fsyncs none after it.  Then
    each device runs the timer firing that fell inside the scope, if one
    did.  Entering allocates nothing: one object serves every request it
    scopes."""

    __slots__ = ("logs",)

    def __init__(self, *logs: Optional[AppendLog]) -> None:
        self.logs = tuple(dict.fromkeys(
            [log for log in logs if log is not None]))

    def __enter__(self) -> None:
        for log in self.logs:
            log._scopes += 1

    def __exit__(self, *exc_info) -> None:
        try:
            for log in self.logs:
                if log._scopes == 1 and log.before_barrier is not None:
                    log.before_barrier()
        finally:
            for log in self.logs:
                log._scopes -= 1
        for log in self.logs:
            if log._commit_due and not log._scopes:
                if log._unflushed or len(log._data) > log._cached_length:
                    log.flush_and_fsync()
                else:
                    log.fsync()
        for log in self.logs:
            if log._fire_due and not log._scopes:
                log._fire()


class LogWriter:
    """One writer of ``log`` under an :class:`FsyncPolicy`: the one place
    that decides when the writer's appended bytes get fsynced.

    After each operation the writer calls :meth:`post_command`.  Under
    ``always`` an operation's bytes are durable as it returns -- unless
    it runs inside a barrier scope (:meth:`AppendLog.group`,
    :class:`BarrierScope`), whose exit then pays one fsync for every
    operation in it.  An ``everysec`` writer joins its device's timer
    (:meth:`AppendLog.join_timer`) at ``interval``: each firing's
    :meth:`tick` is a barrier that nobody waits for, queued on the
    device (``fsync(wait=False)``), run at the outermost exit of a
    barrier scope the firing falls inside, after the scope's own
    barriers.  :meth:`sync` is a barrier as written, scope or no scope:
    waited, or queued for a seal nobody waits for.
    """

    def __init__(self, log: AppendLog, clock: Clock, policy: FsyncPolicy,
                 interval: float = 1.0) -> None:
        self.log = log
        self.clock = clock
        self.policy = policy
        if policy is FsyncPolicy.EVERYSEC:
            log.join_timer(self, interval)

    def post_command(self) -> bool:
        """Flush the application buffer; under ``always``, commit when
        bytes moved (Redis' flushAppendOnlyFile at the end of each event
        loop iteration): fsync now or, inside a barrier scope, once at
        its exit.  Returns whether it fsynced now."""
        log = self.log
        moved = log.flush()
        if self.policy is FsyncPolicy.ALWAYS and moved:
            if log._scopes:
                log._commit_due = True
                return False
            log.fsync()
            return True
        return False

    def tick(self) -> None:
        """The device timer's step: queue one fsync on the device if some
        file on it holds unsynced bytes -- no request waits for it, so
        none pays for it.  It writes nothing: every writer's
        :meth:`post_command` has already moved its bytes to the page
        cache."""
        if self.log.holds_unsynced():
            self.log.fsync(wait=False)

    def sync(self, wait: bool = True) -> None:
        """Make everything appended so far durable now, whatever the
        policy and inside a barrier scope too (an end-of-run barrier, a
        seal that orders later writes); ``wait=False`` queues the
        barrier on the device (:meth:`AppendLog.fsync`)."""
        log = self.log
        if log.unflushed_bytes or log.unsynced_bytes:
            log.flush_and_fsync(wait)
