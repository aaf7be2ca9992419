"""MONITOR: streaming every command to subscribed clients.

The paper's section 4.1 considers MONITOR as an audit mechanism and rejects
it: it streams plaintext over the network (needing its own encryption) and
costs more than AOF piggybacking.  :class:`MonitorFeed` reproduces the
mechanism: each executed command is formatted and pushed to every attached
sink, charging serialization CPU plus (if the sink is a network endpoint)
transmission on the simulated channel.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

MonitorSink = Callable[[bytes], None]

# Formatting + copy cost per streamed record (CPU, seconds).
FORMAT_COST = 3e-6


class MonitorFeed:
    """Dispatches command traces to attached MONITOR subscribers."""

    def __init__(self, clock=None, format_cost: float = FORMAT_COST) -> None:
        self._sinks: List[MonitorSink] = []
        self._clock = clock
        self._format_cost = format_cost
        self.records_streamed = 0

    def attach(self, sink: MonitorSink) -> None:
        self._sinks.append(sink)

    @property
    def active(self) -> bool:
        return bool(self._sinks)

    @staticmethod
    def format_record(timestamp: float, db_index: int,
                      args: Sequence[bytes]) -> bytes:
        """The human-readable line MONITOR emits:
        ``<ts> [<db> <addr>] "CMD" "arg" ...``"""
        rendered = " ".join(
            '"%s"' % arg.decode("utf-8", "replace") for arg in args)
        return f"{timestamp:.6f} [{db_index} sim:0] {rendered}\n".encode()

    def publish(self, timestamp: float, db_index: int,
                args: Sequence[bytes]) -> None:
        if not self._sinks:
            return
        record = self.format_record(timestamp, db_index, args)
        if self._clock is not None and self._format_cost:
            self._clock.advance(self._format_cost)
        for sink in self._sinks:
            sink(record)
        self.records_streamed += 1
