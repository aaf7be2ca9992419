"""Append-only log file abstraction with explicit durability states.

This models how Redis' AOF interacts with the OS: ``append`` places bytes in
the *application buffer* (free), ``flush`` issues the write() syscall moving
them to the *page cache* (cheap), and ``fsync`` makes them *durable*
(expensive).  The three-state split is exactly what makes the paper's
``appendfsync always`` vs ``everysec`` experiment behave the way it does, so
the log tracks each boundary and can crash at either.
"""

from __future__ import annotations

from typing import Optional

from ..common.clock import Clock, SimClock
from ..common.errors import DeviceIOError
from .block_device import FaultInjector
from .latency import ZERO, LatencyModel


class AppendLog:
    """An append-only byte log with buffer / page-cache / durable frontiers.

    Invariant: ``durable_length <= cached_length <= total_length``.
    """

    def __init__(self, clock: Optional[Clock] = None,
                 latency: LatencyModel = ZERO,
                 faults: Optional[FaultInjector] = None,
                 name: str = "appendonly.aof") -> None:
        self.clock = clock if clock is not None else SimClock()
        self.latency = latency
        self.faults = faults
        self.name = name
        self._data = bytearray()
        self._cached_length = 0
        self._durable_length = 0
        # Counters for benchmarks.
        self.appends = 0
        self.syscalls = 0
        self.fsyncs = 0
        self.reads = 0

    # -- frontiers -----------------------------------------------------------

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

    # -- operations ----------------------------------------------------------

    def append(self, data: bytes) -> None:
        """Buffer bytes in the application buffer (no time charged)."""
        self._data.extend(data)
        self.appends += 1

    def flush(self) -> int:
        """write() the application buffer to the page cache.

        Returns the number of bytes moved.  Charges the write-syscall cost
        plus per-byte cost for the moved bytes.
        """
        pending = len(self._data) - self._cached_length
        if pending == 0:
            return 0
        if self.faults is not None:
            self.faults.check()
        self.clock.advance(self.latency.write_cost(pending))
        self._cached_length = len(self._data)
        self.syscalls += 1
        return pending

    def fsync(self) -> None:
        """Durability barrier over everything in the page cache."""
        self.clock.advance(self.latency.fsync)
        self._durable_length = self._cached_length
        self.fsyncs += 1

    def flush_and_fsync(self) -> None:
        self.flush()
        self.fsync()

    def replace(self, data: bytes) -> None:
        """Atomically replace the log contents (AOF rewrite rename step).

        Modelled as writing a new file and renaming over the old one, so
        the replacement is durable as a unit.
        """
        self.clock.advance(self.latency.write_cost(len(data)))
        self.clock.advance(self.latency.fsync)
        self._data = bytearray(data)
        self._cached_length = len(data)
        self._durable_length = len(data)
        self.syscalls += 1
        self.fsyncs += 1

    # -- reading & crashes -----------------------------------------------------

    def read_all(self) -> bytes:
        """Everything appended so far (the live file's logical view)."""
        return bytes(self._data)

    def read_at(self, offset: int, length: int) -> bytes:
        """pread(): ``length`` bytes starting at ``offset``, charged as
        one read syscall plus per-byte cost for the bytes returned."""
        if offset < 0 or length < 0 or offset + length > len(self._data):
            raise DeviceIOError(
                f"{self.name}: read of {length} bytes at {offset} outside "
                f"the file's {len(self._data)} bytes")
        self.clock.advance(self.latency.read_cost(length))
        self.reads += 1
        return bytes(self._data[offset:offset + length])

    def read_durable(self) -> bytes:
        """What the file would contain after a power loss."""
        return bytes(self._data[:self._durable_length])

    def read_cached(self) -> bytes:
        """What the file contains according to the OS (survives a process
        crash but not power loss)."""
        return bytes(self._data[:self._cached_length])

    def crash(self, power_loss: bool = True) -> None:
        """Discard non-durable suffix (power loss) or just the application
        buffer (process crash)."""
        frontier = self._durable_length if power_loss else self._cached_length
        del self._data[frontier:]
        self._cached_length = min(self._cached_length, frontier)
        self._durable_length = min(self._durable_length, frontier)

    def corrupt_tail(self, nbytes: int) -> None:
        """Flip the final ``nbytes`` (torn-write injection for replay tests)."""
        if nbytes <= 0 or nbytes > len(self._data):
            raise DeviceIOError("corruption span outside file")
        for i in range(len(self._data) - nbytes, len(self._data)):
            self._data[i] ^= 0xFF
