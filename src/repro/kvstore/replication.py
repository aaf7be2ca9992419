"""Asynchronous primary -> replica replication.

GDPR's right to be forgotten "demands that the requested data be erased
in a timely manner **including all its replicas and backups**" (paper
section 2.1).  That makes replication lag a *compliance* property, not
just an availability one: a DEL on the primary leaves the data readable
on replicas until the replication stream catches up.

The model mirrors Redis async replication:

* the primary emits its effective-write stream (post-translation, so
  expirations travel as DELs and a value and its deadline as one
  absolute ``SET..PXAT``);
* each :class:`ReplicationLink` delivers that stream with a configurable
  one-way delay: every replicated command is one daemon event,
  ``replicate-<link name>``, on the group's scheduler at write time +
  delay, and that event applies exactly that command;
* replicas are full stores of their own (reads work, their cron does NOT
  expire keys actively -- like Redis replicas, they wait for the
  primary's DELs).

A :class:`ReplicationManager` is one replica group: a primary and its
links on one scheduling clock.  The cluster keeps one per shard
(:mod:`repro.cluster.replication`).

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
from functools import partial
from typing import Deque, Iterable, List, Optional, Sequence, Union

from ..common.clock import Clock, EventHandle
from ..engine.base import StorageEngine
from .aof import image
from .commands import Session, spec_of


@dataclass
class ReplicaStats:
    commands_applied: int = 0
    bytes_applied: int = 0
    last_applied_at: float = 0.0


class _InFlight:
    """One replicated command and the event that will apply it."""

    __slots__ = ("db_index", "argv", "event")

    def __init__(self, db_index: int, argv: List[bytes]) -> None:
        self.db_index = db_index
        self.argv = argv
        self.event: Optional[EventHandle] = None


class ReplicationLink:
    """One replica and the commands in flight to it.  ``clock`` is the
    scheduler the delivery events run on."""

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
        self._in_flight: Deque[_InFlight] = deque()
        self._session = Session()

    def enqueue(self, db_index: int, argv: List[bytes]) -> None:
        """Put one command in flight: a daemon event ``delay`` from now
        that applies exactly this command (daemon, so neither
        ``run_until_idle`` nor a cluster ``sync`` waits on replication)."""
        if self.closed:
            return
        command = _InFlight(db_index, argv)
        command.event = self.clock.schedule_after(
            self.delay, partial(self._deliver, command),
            label=f"replicate-{self.name}", daemon=True)
        self._in_flight.append(command)

    def _deliver(self, command: _InFlight) -> None:
        self._in_flight.remove(command)
        if self._session.db_index != command.db_index:
            self._session.db_index = command.db_index
        self.replica.execute(*command.argv, session=self._session)
        self.stats.commands_applied += 1
        self.stats.bytes_applied += sum(len(a) for a in command.argv)
        self.stats.last_applied_at = command.event.when

    @property
    def backlog(self) -> int:
        return len(self._in_flight)

    def touches(self, keys: Iterable[bytes]) -> bool:
        """Does a command in flight mention any of ``keys`` (as the
        command table places a command's keys)?  A read served while a
        queued command targets the same key may return pre-write (or
        pre-erasure) state, and an erasure is not complete until no
        queued command can bring the key back."""
        targets = set(keys)
        return any(
            not targets.isdisjoint(spec_of(c.argv[0].upper()).keys(c.argv))
            for c in self._in_flight)

    def discard_backlog(self) -> int:
        """Cancel every command still in flight; returns how many.

        Used by full sync: commands enqueued before the image was
        taken are already reflected in it, so replaying them on top
        would double-apply non-idempotent writes (APPEND, INCR)."""
        dropped = len(self._in_flight)
        for command in self._in_flight:
            command.event.cancel()
        self._in_flight.clear()
        return dropped

    def close(self) -> None:
        """Stop this link: cancel the backlog and refuse further traffic.
        The replica store survives (frozen at its last applied state)."""
        self.closed = True
        self.discard_backlog()


class ReplicationManager:
    """One replica group: the primary's write stream fanned out to
    delayed replica links.

    ``clock`` is the scheduler delivery events run on (default: the
    primary's own clock; an event-driven cluster passes its shared
    scheduler, so replicas apply on the timeline the shard's writes
    happen on).  A clock that cannot schedule raises ValueError.
    ``delays`` attaches one replica per entry, named
    ``{name}-replica-{i}``, and full-syncs them; :meth:`add_replica`
    attaches more later.
    """

    def __init__(self, primary: StorageEngine,
                 clock: Optional[Clock] = None, name: str = "primary",
                 delays: Sequence[float] = ()) -> None:
        self.primary = primary
        self.clock = clock if clock is not None else primary.clock
        if not hasattr(self.clock, "schedule_after"):
            raise ValueError(
                "replication needs a scheduling clock (SimClock)")
        self.name = name
        self.links: List[ReplicationLink] = []
        self.closed = False
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

    def close(self) -> None:
        """Detach from the primary's write stream and close every link
        (their in-flight commands never land).

        Without this, a discarded manager stays subscribed as a write
        listener forever: the primary keeps paying fan-out on every
        write and the garbage collector can never reclaim the replicas.
        Idempotent."""
        if self.closed:
            return
        self.closed = True
        self.primary.remove_write_listener(self._on_write)
        for link in self.links:
            link.close()

    def _on_write(self, db_index: int, argv: List[bytes]) -> None:
        for link in self.links:
            link.enqueue(db_index, argv)

    def full_sync_all(self) -> int:
        """Initial synchronization: ship the primary's image
        (:func:`~repro.kvstore.aof.image`, built once) to every replica,
        which flushes its keyspace and replays it (Redis' full resync);
        returns keys loaded across replicas.

        Each link's queued backlog is dropped first: everything enqueued
        before this instant is already reflected in the image, and
        replaying it on top would double-apply non-idempotent writes
        (the replication offset is, in effect, reset to the image)."""
        if not self.links:
            return 0
        data = image(self.primary)
        loaded = 0
        for link in self.links:
            link.discard_backlog()
            replica = link.replica
            replica.execute(b"FLUSHALL")
            replica.replay_aof(data)
            loaded += sum([replica.key_count(index)
                           for index in range(replica.database_count)])
        return loaded

    # -- state and compliance queries --------------------------------------

    def backlog(self) -> int:
        return sum(link.backlog for link in self.links)

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
    a command in flight.  Call immediately after deleting the keys on
    their primaries; None if ``max_wait`` elapses first.

    Advances ``clock`` -- the groups' scheduler -- in ``step``
    increments, so every delivery event due along the way fires at its
    own instant."""
    if isinstance(keys, (bytes, str)):
        raise TypeError("erasure_horizon_of takes a set of keys, not one")
    pending = [key if isinstance(key, bytes) else str(key).encode("utf-8")
               for key in keys]
    start = clock.now()
    while clock.now() - start <= max_wait:
        pending = [key for key in pending
                   if any(group.holds(key, db_index) for group in groups)]
        if not pending:
            return clock.now() - start
        clock.advance(step)
    return None
