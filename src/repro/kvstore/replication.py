"""Asynchronous primary -> replica replication.

GDPR's right to be forgotten "demands that the requested data be erased
in a timely manner **including all its replicas and backups**" (paper
section 2.1).  That makes replication lag a *compliance* property, not
just an availability one: a DEL on the primary leaves the data readable
on replicas until the replication stream catches up.

The model mirrors Redis async replication:

* the primary emits its effective-write stream (post-translation, so
  expirations travel as DELs and relative TTLs as absolute PEXPIREAT);
* each :class:`ReplicationLink` delivers that stream over a simulated
  channel with configurable one-way delay, applying commands in order;
* replicas are full stores of their own (reads work, their cron does NOT
  expire keys actively -- like Redis replicas, they wait for the
  primary's DELs).

A :class:`ReplicationManager` is one replica group: a primary, its links
and, on a scheduling clock, the daemon timer that pumps them.  The
cluster keeps one per shard (:mod:`repro.cluster.replication`).

:func:`erasure_horizon_of` answers the compliance question for any set
of groups: given keys deleted on their primaries at time t, when did the
*last* copy stop serving them?  A key stays pending while it is visible
anywhere **or** a queued command still mentions it -- a pre-deletion SET
still in flight would otherwise land after a visibility-only horizon had
declared the key gone, and the replica would serve it again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional, Sequence, Tuple, Union

from ..common.clock import Clock
from ..engine.base import StorageEngine
from .commands import Session, spec_of


@dataclass
class ReplicaStats:
    commands_applied: int = 0
    bytes_applied: int = 0
    last_applied_at: float = 0.0


class ReplicationLink:
    """One replica and its in-flight command queue."""

    def __init__(self, name: str, replica: StorageEngine, clock: Clock,
                 delay: float = 0.001) -> None:
        if delay < 0:
            raise ValueError("replication delay cannot be negative")
        self.name = name
        self.replica = replica
        self.clock = clock
        self.delay = delay
        self.closed = False
        self.stats = ReplicaStats()
        self._queue: Deque[Tuple[float, int, List[bytes]]] = deque()
        self._session = Session()

    def enqueue(self, db_index: int, argv: List[bytes]) -> None:
        if self.closed:
            return
        deliver_at = self.clock.now() + self.delay
        self._queue.append((deliver_at, db_index, argv))

    @property
    def backlog(self) -> int:
        return len(self._queue)

    def touches(self, keys: Iterable[bytes]) -> bool:
        """Does the in-flight backlog mention any of ``keys`` (as the
        command table places a command's keys)?  A read served while a
        queued command targets the same key may return pre-write (or
        pre-erasure) state, and an erasure is not complete until no
        queued command can bring the key back."""
        targets = set(keys)
        return any(not targets.isdisjoint(spec_of(argv[0].upper()).keys(argv))
                   for _, _, argv in self._queue)

    def discard_backlog(self) -> int:
        """Drop every queued-but-undelivered command; returns how many.

        Used by full sync: commands enqueued before the snapshot was
        taken are already reflected in it, so replaying them on top
        would double-apply non-idempotent writes (APPEND, INCR)."""
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    def close(self) -> None:
        """Stop this link: drop the backlog and refuse further traffic.
        The replica store survives (frozen at its last applied state)."""
        self.closed = True
        self._queue.clear()

    def lag(self) -> float:
        """Seconds until the oldest queued command lands (0 if none)."""
        if not self._queue:
            return 0.0
        return max(self._queue[0][0] - self.clock.now(), 0.0)

    def pump(self) -> int:
        """Apply every command whose delivery time has arrived."""
        now = self.clock.now()
        applied = 0
        while self._queue and self._queue[0][0] <= now:
            deliver_at, db_index, argv = self._queue.popleft()
            if self._session.db_index != db_index:
                self._session.db_index = db_index
            self.replica.execute(*argv, session=self._session)
            self.stats.commands_applied += 1
            self.stats.bytes_applied += sum(len(a) for a in argv)
            # The command *landed* at its delivery time; an infrequent
            # pump must not inflate the apparent replication lag.
            self.stats.last_applied_at = deliver_at
            applied += 1
        return applied


class ReplicationManager:
    """One replica group: the primary's write stream fanned out to
    delayed replica links.

    ``clock`` is the timeline delivery times are computed on (default:
    the primary's own clock; an event-driven cluster passes its shared
    scheduler, so delivery times live on the timeline the pump events
    fire on).  ``delays`` attaches one replica per entry, named
    ``{name}-replica-{i}``, and full-syncs them; :meth:`add_replica`
    attaches more later.
    """

    def __init__(self, primary: StorageEngine,
                 clock: Optional[Clock] = None, name: str = "primary",
                 delays: Sequence[float] = ()) -> None:
        self.primary = primary
        self.clock = clock if clock is not None else primary.clock
        self.name = name
        self.links: List[ReplicationLink] = []
        self.closed = False
        self.pump_interval: Optional[float] = None
        self._pump_handle = None
        for index, delay in enumerate(delays):
            self.add_replica(f"{name}-replica-{index}", delay)
        primary.add_write_listener(self._on_write)
        # Initial full resync (Redis' PSYNC on attach): anything the
        # primary held *before* the group existed predates the write
        # stream and would otherwise be missing from replicas forever.
        if self.links:
            self.full_sync_all()

    def add_replica(self, name: str, delay: float = 0.001
                    ) -> ReplicationLink:
        if self.closed:
            raise ValueError("replication manager is closed")
        if any(link.name == name for link in self.links):
            raise ValueError(f"replica {name!r} already attached")
        # Same-engine by construction: a relational primary gets
        # relational replicas, a KV primary gets KV replicas.
        replica = self.primary.spawn_replica(clock=self.clock)
        link = ReplicationLink(name, replica, self.clock, delay)
        self.links.append(link)
        return link

    def remove_replica(self, name: str) -> bool:
        """Detach a replica and stop its stream: the link is closed, so
        a caller still holding it cannot keep consuming (or applying)
        the primary's writes."""
        for link in self.links:
            if link.name == name:
                self.links.remove(link)
                link.close()
                return True
        return False

    def close(self) -> None:
        """Stop the pump, detach from the primary's write stream and
        close every link.

        Without this, a discarded manager stays subscribed as a write
        listener forever: the primary keeps paying fan-out on every
        write and the garbage collector can never reclaim the replicas.
        Idempotent."""
        self.stop_pump()
        if self.closed:
            return
        self.closed = True
        self.primary.remove_write_listener(self._on_write)
        for link in self.links:
            link.close()

    def _on_write(self, db_index: int, argv: List[bytes]) -> None:
        for link in self.links:
            link.enqueue(db_index, argv)

    # -- delivery ----------------------------------------------------------

    def pump(self) -> int:
        """Deliver due commands on every link; returns commands applied."""
        return sum(link.pump() for link in self.links)

    def start_pump(self, interval: float = 1e-3) -> None:
        """Pump from recurring daemon timer events on the group's
        (scheduling) clock, so replication progresses with the event
        timeline instead of waiting for an explicit pump -- and, like
        the expiry cron, never keeps ``run_until_idle`` alive by
        itself.  Calling again with a different interval re-schedules
        at the new cadence."""
        if not hasattr(self.clock, "every"):
            raise ValueError(
                "timer-driven pumping needs a scheduling clock (SimClock)")
        if interval <= 0:
            raise ValueError("pump interval must be positive")
        if self._pump_handle is not None:
            if interval == self.pump_interval:
                return
            self._pump_handle.cancel()
        self.pump_interval = interval
        self._pump_handle = self.clock.every(
            interval, self.pump, label=f"replication-pump-{self.name}")

    def stop_pump(self) -> None:
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None

    def full_sync_all(self) -> int:
        """Initial synchronization: copy a snapshot of the primary to
        every replica (Redis' RDB-based full resync); returns keys
        loaded across replicas.

        Each link's queued backlog is dropped first: everything enqueued
        before this instant is already reflected in the snapshot, and
        replaying it on top would double-apply non-idempotent writes
        (the replication offset is, in effect, reset to the snapshot)."""
        loaded = 0
        for link in self.links:
            link.discard_backlog()
            loaded += link.replica.load_snapshot(self.primary.save_snapshot())
        return loaded

    # -- state and compliance queries --------------------------------------

    def backlog(self) -> int:
        return sum(link.backlog for link in self.links)

    def max_lag(self) -> float:
        return max((link.lag() for link in self.links), default=0.0)

    def key_visible_anywhere(self, key: bytes, db_index: int = 0) -> bool:
        """Is the key still readable on the primary or any replica?"""
        return self.primary.has_live_key(key, db_index) or any(
            link.replica.has_live_key(key, db_index) for link in self.links)

    def holds(self, key: bytes, db_index: int = 0) -> bool:
        """Is ``key`` erasure-pending in this group: visible on the
        primary or a replica, or mentioned by an in-flight command?"""
        return self.key_visible_anywhere(key, db_index) or any(
            link.touches((key,)) for link in self.links)

    def erasure_horizon(self, keys: Iterable[Union[bytes, str]],
                        step: float = 1e-3, max_wait: float = 60.0,
                        db_index: int = 0) -> Optional[float]:
        """This group's erasure horizon of a key set (see
        :func:`erasure_horizon_of`)."""
        return erasure_horizon_of(self.clock, [self], keys, step=step,
                                  max_wait=max_wait, db_index=db_index)


def erasure_horizon_of(clock: Clock, groups: Sequence[ReplicationManager],
                       keys: Iterable[Union[bytes, str]],
                       step: float = 1e-3, max_wait: float = 60.0,
                       db_index: int = 0) -> Optional[float]:
    """Simulated seconds until no copy of any of ``keys`` is left in
    ``groups``: none visible on a primary or replica, none mentioned by
    a queued command.  Call immediately after deleting the keys on their
    primaries; None if ``max_wait`` elapses first.

    Advances ``clock`` in ``step`` increments -- firing any scheduled
    pump events along the way, and keeping a group's own clock in step
    when it differs -- and pumps explicitly, so the answer is identical
    whether or not timer pumps are running."""
    if isinstance(keys, (bytes, str)):
        raise TypeError("erasure_horizon_of takes a set of keys, not one")
    pending = [key if isinstance(key, bytes) else str(key).encode("utf-8")
               for key in keys]
    start = clock.now()
    while clock.now() - start <= max_wait:
        now = clock.now()
        for group in groups:
            if group.clock is not clock:
                group.clock.sleep_until(now)
        for group in groups:
            group.pump()
        pending = [key for key in pending
                   if any(group.holds(key, db_index) for group in groups)]
        if not pending:
            return clock.now() - start
        clock.advance(step)
    return None
