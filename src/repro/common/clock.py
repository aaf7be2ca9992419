"""Clock abstractions: deterministic simulated time.

Every latency-bearing component (block devices, channels, the expiry cron,
the audit log) takes a :class:`Clock` so that the whole stack runs in
**simulated time** -- :class:`SimClock` -- where components *charge* time
via :meth:`Clock.advance` and experiments are deterministic regardless of
host speed.

:class:`SimClock` is also the repository's **discrete-event scheduler**:
components post timed events with :meth:`SimClock.schedule_at` /
:meth:`SimClock.schedule_after` and a driver runs them in timestamp order
with :meth:`SimClock.run_next` / :meth:`SimClock.run_until_idle`.  The two
styles compose: ``advance`` fires any events that fall inside the advanced
window at their correct instants (so a component charging time inline
interleaves correctly with scheduled deliveries), and events with equal
timestamps fire in the order they were scheduled, which is what makes two
identical runs produce identical event traces.

The paper's evaluation ran on a specific Dell testbed; the simulated clock is
what lets this reproduction report the *ratios* the paper reports on any
machine (see docs/architecture.md, "Execution model").
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple


class Clock:
    """Interface: a monotonically non-decreasing source of seconds."""

    def now(self) -> float:
        """Return the current time in (fractional) seconds."""
        raise NotImplementedError

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of elapsed time to the clock."""
        raise NotImplementedError

    def sleep_until(self, deadline: float) -> None:
        """Advance the clock to ``deadline`` if it is in the future."""
        delta = deadline - self.now()
        if delta > 0:
            self.advance(delta)


class EventHandle:
    """A scheduled event; :meth:`cancel` prevents it from firing.

    Cancellation is lazy: the entry stays in the heap and is skipped when
    it reaches the top, so cancelling is O(1).
    """

    __slots__ = ("when", "seq", "callback", "label", "daemon", "_state",
                 "_clock")

    _PENDING, _FIRED, _CANCELLED = 0, 1, 2

    def __init__(self, when: float, seq: int, callback: Callable[[], None],
                 label: str, daemon: bool, clock: "SimClock") -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.label = label
        self.daemon = daemon
        self._state = self._PENDING
        self._clock = clock

    @property
    def active(self) -> bool:
        return self._state == self._PENDING

    def cancel(self) -> bool:
        """Cancel if still pending; returns whether anything changed."""
        if self._state != self._PENDING:
            return False
        self._state = self._CANCELLED
        if not self.daemon:
            self._clock._live_events -= 1
        return True


class SimClock(Clock):
    """Deterministic virtual clock and discrete-event scheduler.

    Time moves two ways, and they interleave correctly:

    * a component calls :meth:`advance` to charge time inline (the
      closed-loop style); any events due inside the advanced window fire
      at their own instants along the way;
    * a driver calls :meth:`run_next` / :meth:`run_until_idle` to pop
      scheduled events in (timestamp, schedule-order) order -- the
      discrete-event style the event-loop server and the open-loop load
      generator are built on.

    **Daemon events** (recurring background work: the expiry cron, the
    everysec fsync) never keep :meth:`run_until_idle` alive on their own:
    the loop stops once only daemon events remain, exactly as daemon
    threads do not keep a process alive.

    An optional **event trace** (:meth:`enable_trace`) records every fired
    event as ``(when, label)``; two identical seeded runs must produce
    identical traces, which the determinism tests assert.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before t=0")
        self._now = float(start)
        self._events: List[Tuple[float, int, EventHandle]] = []
        self._timer_seq = 0
        self._live_events = 0       # active non-daemon events in the heap
        self.trace: Optional[List[Tuple[float, str]]] = None

    def now(self) -> float:
        return self._now

    # -- scheduling --------------------------------------------------------

    def schedule_at(self, when: float, callback: Callable[[], None],
                    label: str = "", daemon: bool = False) -> EventHandle:
        """Schedule ``callback`` to run when the clock reaches ``when``.

        Events with equal ``when`` fire in the order they were scheduled.
        Returns a cancellable :class:`EventHandle`.
        """
        if when < self._now:
            raise ValueError("cannot schedule a timer in the past")
        self._timer_seq += 1
        handle = EventHandle(when, self._timer_seq, callback, label, daemon,
                             self)
        heapq.heappush(self._events, (when, self._timer_seq, handle))
        if not daemon:
            self._live_events += 1
        return handle

    def schedule_after(self, delay: float, callback: Callable[[], None],
                       label: str = "", daemon: bool = False) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule a timer in the past")
        return self.schedule_at(self._now + delay, callback,
                                label=label, daemon=daemon)

    def every(self, interval: float, callback: Callable[[], None],
              label: str) -> "RecurringTimer":
        """Run ``callback`` every ``interval`` seconds from daemon events
        (the first one ``interval`` from now) until the returned
        :class:`RecurringTimer` is cancelled."""
        return RecurringTimer(self, interval, callback, label)

    def pending_timers(self) -> int:
        """Number of scheduled-but-unfired events (cancelled excluded)."""
        return sum(1 for _, _, handle in self._events if handle.active)

    def pending_live_events(self) -> int:
        """Active non-daemon events (what keeps ``run_until_idle``
        going).  O(1): drivers poll this to tell "a reply can still
        arrive" from "only background daemons remain"."""
        return self._live_events

    def nothing_due_by(self, when: float) -> bool:
        """True when no queued entry (cancelled ones included) is due at
        or before ``when``: an event scheduled at ``when`` now would be
        the very next one popped."""
        events = self._events
        return not events or events[0][0] > when

    # -- running -----------------------------------------------------------

    def run_next(self) -> bool:
        """Pop and run the earliest pending event; False when none remain.

        The clock jumps to the event's timestamp before the callback runs
        (it never moves backwards).
        """
        events = self._events
        while events:
            when, _, handle = heapq.heappop(events)
            if handle._state:               # cancelled: skip
                continue
            if when > self._now:
                self._now = when
            handle._state = EventHandle._FIRED
            if not handle.daemon:
                self._live_events -= 1
            if self.trace is not None:
                self.trace.append((when, handle.label))
            handle.callback()
            return True
        return False

    def run_until_idle(self, deadline: Optional[float] = None) -> int:
        """Run events in order until only daemon events remain (or until
        ``deadline``); returns the number of events run.

        With a ``deadline``, events due at or before it run, later ones
        stay queued, and the clock ends exactly at ``deadline`` (so a
        bounded experiment always spans the same simulated interval).
        """
        ran = 0
        while self._live_events > 0:
            if deadline is not None and self._events:
                upcoming = self._next_active_when()
                if upcoming is None or upcoming > deadline:
                    break
            if not self.run_next():
                break
            ran += 1
        if deadline is not None:
            self.sleep_until(deadline)
        return ran

    def _next_active_when(self) -> Optional[float]:
        while self._events:
            when, _, handle = self._events[0]
            if handle.active:
                return when
            heapq.heappop(self._events)
        return None

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        target = self._now + seconds
        # Fire events that fall inside the advanced window, in order.  A
        # callback may itself advance the clock (a nested service charge);
        # the outer target then only applies if time has not already
        # passed it.
        # (Same firing steps as run_next, spelled out: run_next would pop
        # past a cancelled entry to an event beyond the window.)
        events = self._events
        while events and events[0][0] <= target:
            when, _, handle = heapq.heappop(events)
            if handle._state:               # cancelled: skip
                continue
            if when > self._now:
                self._now = when
            handle._state = EventHandle._FIRED
            if not handle.daemon:
                self._live_events -= 1
            if self.trace is not None:
                self.trace.append((when, handle.label))
            handle.callback()
        if target > self._now:
            self._now = target

    # -- tracing -----------------------------------------------------------

    def enable_trace(self) -> List[Tuple[float, str]]:
        """Start recording fired events as ``(when, label)``; returns the
        live trace list (also available as ``clock.trace``)."""
        if self.trace is None:
            self.trace = []
        return self.trace


class RecurringTimer:
    """Recurring background work on a :class:`SimClock` (crons,
    periodic flushes); see :meth:`SimClock.every`.

    Each firing runs the callback and *then* schedules the next daemon
    event, so the events keep the ``(when, seq, label)`` a hand-written
    ``fire(); reschedule`` closure gives them.  A callback that raises
    still gets its next firing (the exception then propagates): one
    failed fsync must not end a device's timer.  :meth:`cancel` stops
    the chain, also from inside the callback."""

    __slots__ = ("clock", "interval", "callback", "label", "_handle")

    def __init__(self, clock: SimClock, interval: float,
                 callback: Callable[[], None], label: str) -> None:
        if interval <= 0:
            raise ValueError("a recurring timer needs a positive interval")
        self.clock = clock
        self.interval = interval
        self.callback = callback
        self.label = label
        self._handle: Optional[EventHandle] = clock.schedule_after(
            interval, self._fire, label=label, daemon=True)

    @property
    def active(self) -> bool:
        return self._handle is not None

    def _fire(self) -> None:
        try:
            self.callback()
        finally:
            if self._handle is not None:
                self._handle = self.clock.schedule_after(
                    self.interval, self._fire, label=self.label,
                    daemon=True)

    def cancel(self) -> bool:
        """Stop firing; returns whether the timer was running."""
        if self._handle is None:
            return False
        self._handle.cancel()
        self._handle = None
        return True


class WorkerClock(Clock):
    """One simulated core of a multi-worker shard.

    Child of a :class:`ShardClock`.  :meth:`advance` both moves the
    worker's local time forward *and* accounts it as busy time, so
    per-core utilisation falls straight out of the simulation.  Waiting
    (being moved to a dispatch instant, or being held at a barrier) goes
    through :meth:`idle_until` and is *not* billed as busy.
    """

    __slots__ = ("index", "_now", "busy_seconds")

    def __init__(self, index: int, start: float) -> None:
        self.index = index
        self._now = float(start)
        self.busy_seconds = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += seconds
        self.busy_seconds += seconds

    def idle_until(self, deadline: float) -> None:
        """Move to ``deadline`` without billing busy time (waiting)."""
        if deadline > self._now:
            self._now = deadline

    def sleep_until(self, deadline: float) -> None:
        # Sleeping is waiting, not work: never bill it as busy time.
        self.idle_until(deadline)


class ShardClock(Clock):
    """A shard's service meter split across K :class:`WorkerClock` cores.

    The store underneath a multi-worker shard still sees a single
    ``Clock``; which core a service charge lands on is decided by the
    worker pool bracketing each command with :meth:`activate` /
    :meth:`release`:

    * while a worker is **active**, ``now()``/``advance()``/
      ``sleep_until()`` are that worker's -- the command's CPU and I/O
      cost is billed to exactly one core;
    * with **no active worker**, ``advance()`` charges *all* cores
      (stop-the-world).  That is deliberately the barrier semantics:
      direct calls and cross-worker commands such as an Art. 17 fan-out
      occupy the whole shard, and ``now()`` reports the frontier (max
      across cores).

    **Recurring work** (:meth:`every`: a device's everysec timer, the
    write-behind flush) runs as daemon events on the cluster's
    ``scheduler``, each firing through :attr:`run_background` -- which
    the shard's worker pool points at its own, billing the firing to the
    core that last wrote the log instead of to every core.

    **Per-slot billing**: :meth:`activate` optionally names the hash
    slot the command belongs to; every ``advance`` charge inside the
    activation then also accumulates under that slot in
    :attr:`slot_seconds`, and :meth:`release` returns the activation's
    billed total.  This is what skew-aware worker placement feeds on --
    the cost of a hot slot is measured where it is paid, not estimated
    from request counts.  With ``slot=None`` (the default) the hook is
    bypassed entirely.

    With ``workers=1`` (every cluster shard's default) the shard clock
    behaves as one plain meter.
    """

    def __init__(self, start: float = 0.0, workers: int = 1,
                 scheduler: Optional[SimClock] = None) -> None:
        if workers < 1:
            raise ValueError("a shard needs at least one worker")
        self.workers: List[WorkerClock] = [
            WorkerClock(index, start) for index in range(workers)]
        self.scheduler = scheduler
        self.run_background: Callable[[Callable[[], None]], None] = \
            lambda work: work()
        #: The recurring timers :meth:`every` started (a retired shard's
        #: are cancelled with it).
        self.timers: List[RecurringTimer] = []
        self._active: Optional[WorkerClock] = None
        self._active_slot: Optional[int] = None
        self._active_billed = 0.0
        self.slot_seconds: dict = {}    # slot -> cumulative billed seconds

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def worker(self, index: int) -> WorkerClock:
        return self.workers[index]

    def add_worker(self, start: float) -> WorkerClock:
        """Bring a new core online at ``start`` (a live worker raise)."""
        worker = WorkerClock(len(self.workers), float(start))
        self.workers.append(worker)
        return worker

    def remove_worker(self) -> WorkerClock:
        """Take the last core offline (a live worker shed).

        The remaining cores are idled forward to the departing core's
        frontier so ``now()`` (max across cores) never moves backwards
        when the shed core happened to own the frontier."""
        if self._active is not None:
            raise RuntimeError("cannot shed a worker mid-command")
        if len(self.workers) <= 1:
            raise ValueError("a shard needs at least one worker")
        retired = self.workers.pop()
        frontier = max(retired.now(),
                       max(worker.now() for worker in self.workers))
        for worker in self.workers:
            worker.idle_until(frontier)
        return retired

    def activate(self, worker: WorkerClock,
                 slot: Optional[int] = None) -> None:
        if self._active is not None:
            raise RuntimeError("shard clock already has an active worker")
        self._active = worker
        self._active_slot = slot
        self._active_billed = 0.0

    def release(self) -> float:
        """End the activation; returns the seconds billed inside it."""
        billed = self._active_billed
        if self._active_slot is not None and billed > 0.0:
            self.slot_seconds[self._active_slot] = \
                self.slot_seconds.get(self._active_slot, 0.0) + billed
        self._active = None
        self._active_slot = None
        self._active_billed = 0.0
        return billed

    def now(self) -> float:
        if self._active is not None:
            return self._active.now()
        return max(worker.now() for worker in self.workers)

    def advance(self, seconds: float) -> None:
        if self._active is not None:
            self._active.advance(seconds)
            self._active_billed += seconds
            return
        for worker in self.workers:
            worker.advance(seconds)

    def sleep_until(self, deadline: float) -> None:
        if self._active is not None:
            self._active.sleep_until(deadline)
            return
        for worker in self.workers:
            worker.idle_until(deadline)

    def busy_seconds(self) -> float:
        """Total busy time across all cores (for utilisation reports)."""
        return sum(worker.busy_seconds for worker in self.workers)

    def every(self, interval: float, callback: Callable[[], None],
              label: str) -> RecurringTimer:
        """Run ``callback`` every ``interval`` seconds as daemon events on
        :attr:`scheduler`, each firing through :attr:`run_background`."""
        if self.scheduler is None:
            raise RuntimeError("recurring work needs ShardClock(scheduler=)")
        timer = self.scheduler.every(
            interval, lambda: self.run_background(callback), label)
        self.timers.append(timer)
        return timer
