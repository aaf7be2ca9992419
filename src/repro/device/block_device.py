"""Simulated block devices with latency accounting.

:class:`SimulatedBlockDevice` stores bytes in memory, charges simulated time
on a :class:`~repro.common.clock.Clock` according to a
:class:`~repro.device.latency.LatencyModel`, and distinguishes *written*
from *durable* state so crash tests can observe exactly what an fsync-less
workload would lose.
"""

from __future__ import annotations

from typing import Optional

from ..common.clock import Clock, SimClock
from ..common.errors import DeviceFullError, DeviceIOError
from .latency import ZERO, LatencyModel


class SimulatedBlockDevice:
    """A flat byte-addressable device.

    Writes land in the *volatile* image immediately; :meth:`flush` copies
    the volatile image to the *durable* image and charges the fsync cost.
    A power loss (see :class:`~repro.device.faults.FaultPlan`) discards
    the volatile image.
    """

    #: The operations a :class:`~repro.device.faults.FaultPlan` sees.
    FAULT_OPS = ("write", "flush")

    def __init__(self, capacity: int, clock: Optional[Clock] = None,
                 latency: LatencyModel = ZERO) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.clock = clock if clock is not None else SimClock()
        self.latency = latency
        self.faults = None
        self._volatile = bytearray(capacity)
        self._durable = bytearray(capacity)
        # Counters exposed for benchmarks and assertions.
        self.writes = 0
        self.reads = 0
        self.flushes = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # -- primitives ----------------------------------------------------------

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` into the volatile image."""
        end = offset + len(data)
        if offset < 0 or end > self.capacity:
            raise DeviceFullError(
                f"write [{offset}, {end}) exceeds capacity {self.capacity}")
        if self.faults is not None:
            self.faults.step(self, "write")
        self.clock.advance(self.latency.write_cost(len(data)))
        self._volatile[offset:end] = data
        self.writes += 1
        self.bytes_written += len(data)

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` from the volatile image."""
        end = offset + length
        if offset < 0 or length < 0 or end > self.capacity:
            raise DeviceIOError(
                f"read [{offset}, {end}) exceeds capacity {self.capacity}")
        self.clock.advance(self.latency.read_cost(length))
        self.reads += 1
        self.bytes_read += length
        return bytes(self._volatile[offset:end])

    def flush(self) -> None:
        """Durability barrier: persist all volatile writes (fsync)."""
        if self.faults is not None:
            self.faults.step(self, "flush")
        self.clock.advance(self.latency.fsync)
        self._durable[:] = self._volatile
        self.flushes += 1

    def _lose_power(self) -> None:
        """Power loss: the volatile image reverts to the durable one."""
        self._volatile[:] = self._durable
