"""Simulated network channels with bandwidth and latency accounting.

A :class:`Channel` is a bidirectional byte pipe between two
:class:`Endpoint` objects on one :class:`~repro.common.clock.SimClock`
scheduler.  Sending costs the sender nothing now: the bytes are
*scheduled* to arrive at the peer at ``serialization-done + latency``,
with consecutive sends in the same direction queueing behind each other
at the link's bandwidth (``per_message_overhead + nbytes / bandwidth``
each), as frames do on a real NIC.  Delivery fires the receiving
endpoint's receiver callback, which is how the event-loop server learns
a connection is readable without anyone blocking; a closed-loop caller
drives the scheduler until the bytes it waits for have arrived.  The
stunnel deployment (:func:`repro.net.tls.stunnel_channel`) is the same
channel at the paper's measured 4.9 Gb/s with two proxy traversals per
message -- how the TLS experiment reproduces the bandwidth collapse
(44 Gb/s raw -> 4.9 Gb/s).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Optional

from ..common.clock import SimClock
from ..common.errors import ChannelClosedError

# The paper's testbed numbers (section 4.2).
RAW_BANDWIDTH_BPS = 44e9 / 8          # 44 Gb/s in bytes/second
PROXIED_BANDWIDTH_BPS = 4.9e9 / 8     # 4.9 Gb/s through stunnel proxies
LAN_LATENCY = 20e-6                   # one-way datacenter-ish latency

# Event labels of a delivery, by receiving side.
_DELIVER_LABELS = ("deliver[0]", "deliver[1]")


class Endpoint:
    """One side of a channel: send() to the peer, recv() from a byte queue."""

    def __init__(self, channel: "Channel", side: int) -> None:
        self._channel = channel
        self._side = side
        self._rx: Deque[bytes] = deque()
        self._rx_bytes = 0
        self._receiver: Optional[Callable[[], None]] = None

    # -- sending -----------------------------------------------------------

    def send(self, data: bytes) -> None:
        self._channel.transmit(self._side, data)

    # -- receiving ---------------------------------------------------------

    def set_receiver(self, callback: Optional[Callable[[], None]]) -> None:
        """Register a readable-notification callback: it runs after each
        delivery, and the callee drains with :meth:`recv`."""
        self._receiver = callback

    def _deliver(self, data: bytes) -> None:
        self._rx.append(data)
        self._rx_bytes += len(data)
        if self._receiver is not None:
            self._receiver()

    @property
    def available(self) -> int:
        return self._rx_bytes

    def recv(self, max_bytes: Optional[int] = None) -> bytes:
        """Drain up to ``max_bytes`` from the receive queue (all if None).

        Returns b"" when nothing is pending; raises ChannelClosedError only
        if the channel is closed *and* the queue is empty.
        """
        if not self._rx:
            if self._channel.closed:
                raise ChannelClosedError("channel is closed")
            return b""
        if max_bytes is None:
            data = b"".join(self._rx)
            self._rx.clear()
            self._rx_bytes = 0
            return data
        out = bytearray()
        while self._rx and len(out) < max_bytes:
            chunk = self._rx.popleft()
            take = max_bytes - len(out)
            if len(chunk) > take:
                out.extend(chunk[:take])
                self._rx.appendleft(chunk[take:])
            else:
                out.extend(chunk)
        self._rx_bytes -= len(out)
        return bytes(out)

    def close(self) -> None:
        self._channel.close()


class Channel:
    """A bidirectional pipe with shared bandwidth/latency parameters."""

    def __init__(self, clock: Optional[SimClock] = None,
                 bandwidth_bps: float = RAW_BANDWIDTH_BPS,
                 latency: float = LAN_LATENCY,
                 per_message_overhead: float = 0.0) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0 or per_message_overhead < 0:
            raise ValueError("delays cannot be negative")
        self.clock = clock if clock is not None else SimClock()
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.per_message_overhead = per_message_overhead
        self.closed = False
        self.messages = 0
        self.bytes_transferred = 0
        # Per-direction link occupancy: a transmit may not start
        # serializing before the previous one in that direction has left
        # the NIC.
        self._link_free_at = [0.0, 0.0]
        self._ends = (Endpoint(self, 0), Endpoint(self, 1))

    def endpoints(self) -> tuple:
        """(client_end, server_end)."""
        return self._ends

    def transmit(self, from_side: int, data: bytes) -> None:
        if self.closed:
            raise ChannelClosedError("channel is closed")
        self.messages += 1
        self.bytes_transferred += len(data)
        # The sender is not blocked; the bytes serialize onto the link
        # after any earlier transmit in this direction, then propagate.
        # Delivery is a scheduled event at the receiver.
        serialize = (self.per_message_overhead
                     + len(data) / self.bandwidth_bps)
        start = max(self.clock.now(), self._link_free_at[from_side])
        done = start + serialize
        self._link_free_at[from_side] = done
        self.clock.schedule_at(
            done + self.latency,
            partial(self._ends[1 - from_side]._deliver, data),
            label=_DELIVER_LABELS[1 - from_side])

    def close(self) -> None:
        self.closed = True


def loopback(clock: Optional[SimClock] = None) -> Channel:
    """A raw (unproxied) channel at the testbed's 44 Gb/s."""
    return Channel(clock=clock, bandwidth_bps=RAW_BANDWIDTH_BPS,
                   latency=LAN_LATENCY)
