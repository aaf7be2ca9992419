"""Multi-core shard execution: a worker pool over the event loop.

The paper's testbed was quad-core, and with one core per shard the
hockey-stick artifact shows p99 exploding past ~40k offered ops/s.
:class:`WorkerPool` is how every cluster shard executes: it multiplexes
K >= 1 simulated cores (:class:`~repro.common.clock.WorkerClock`
children of one :class:`~repro.common.clock.ShardClock`) over the *same*
:class:`~repro.common.clock.SimClock` scheduler, so determinism is
untouched -- there are still no threads, only more service meters.

Dispatch rules (single-writer semantics by construction):

* **keyspace partition** -- a command's keys hash to slots
  (:func:`~repro.cluster.slots.slot_for_key`), and slot ``s`` belongs to
  worker ``s % K``.  Every command touching a key is executed by that
  key's worker, so per-key operations stay serialized on one core and
  two identical runs pick identical workers;
* **skew-aware placement** (opt-in via
  :attr:`WorkerPoolConfig.placement`) -- the static ``s % K`` partition
  becomes only the *default* of a
  :class:`~repro.cluster.slots.SlotPlacement` table.  Per-slot billed
  service time (the shard clock's per-slot billing hook) feeds a
  decaying load accounting plus a cheap top-N hot-slot tracker, and a
  :class:`Rebalancer` -- applied at quiescence, exactly like a live
  worker raise -- re-homes hot slots onto the least-loaded cores with a
  greedy longest-processing-time pass.  When one slot alone exceeds a
  fair core share, its *read-only* commands (the command table's
  :attr:`~repro.kvstore.commands.CommandSpec.readonly`, the rule
  replica routing uses) are **split** across several cores
  while its writes stay pinned to the slot's home worker -- single
  writer by construction, reads fanned where the capacity is;
* **per-connection FIFO** -- only the *head* of a connection's queue is
  dispatchable (head-of-line blocking, as on a real connection), so
  RESP replies depart in request order;
* **control commands** (PING, ASKING, INFO, ...) ride worker 0;
* **barrier commands** -- every command whose
  :class:`~repro.kvstore.commands.Routing` class says ``barrier``
  (anything that reads or mutates the whole keyspace, and the TENANT
  stamp), cross-worker multi-key commands, and -- via the shard
  clock's stop-the-world ``advance`` -- the GDPR Art. 15/17/20/21
  fan-out wait until every worker is free and then occupy *all* of
  them for their duration;
* **background work** -- the cron and every firing of a device's
  everysec timer -- runs on the core that last wrote the log
  (:meth:`WorkerPool.run_background`); a firing's fsync is queued on
  the device and bills no core.

**Adaptive batching**: each dispatch lets a worker drain up to B queued
commands routed to it (round-robin across connections, so fairness is
preserved).  B doubles when the worker fills its batch (backlog) and
decays when the head-of-queue delay is below :data:`BATCH_LOW_DELAY`,
amortizing the per-dispatch overhead exactly where the hockey-stick
bends.

With ``workers=1``, batch 1 and zero dispatch overhead (the defaults)
the pool *is* the classic Redis loop: one command per tick, started at
``max(arrival wake-up, previous finish)``, its reply flushed when its
service time has elapsed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..common.clock import ShardClock, SimClock, WorkerClock
from ..common.histogram import LatencyHistogram
from .client import parse_command
from .slots import SlotPlacement

# Route classification sentinels (slots are plain ints, multi-slot
# commands carry their slot tuple so re-routing survives worker raises).
ROUTE_CONTROL = "control"
ROUTE_BARRIER = "barrier"
BARRIER = -1

# The adaptive batch controller: B grows to at most MAX_BATCH commands
# per dispatch and decays by one while the head-of-queue delay is below
# BATCH_LOW_DELAY seconds; the pool's queueing-delay EWMA smooths with
# EWMA_ALPHA.
MAX_BATCH = 32
BATCH_LOW_DELAY = 50e-6
EWMA_ALPHA = 0.05


def route_of(parsed) -> Tuple[Any, bool]:
    """``(routing token, readonly)`` for what
    :func:`~repro.cluster.client.parse_command` made of a request.  The
    token is a slot (int), a tuple of slots (cross-slot multi-key),
    :data:`ROUTE_CONTROL`, or :data:`ROUTE_BARRIER`; the worker index is
    derived from it at dispatch, so a live worker raise re-partitions
    the keyspace automatically.  ``readonly`` (the spec's) rides along
    because split-read routing needs it at the same point."""
    if parsed is None:
        return ROUTE_CONTROL, False     # protocol errors are answered inline
    spec, _, slot = parsed
    if spec.routing.barrier:
        return ROUTE_BARRIER, False
    if slot is None:
        return ROUTE_CONTROL, False
    return slot, spec.readonly


def classify(request: Any):
    """The routing token of a decoded request (see :func:`route_of`)."""
    return route_of(parse_command(request))[0]


def route_workers(route, num_workers: int,
                  placement: Optional[SlotPlacement] = None,
                  readonly: bool = False) -> Tuple[int, ...]:
    """Resolve a routing token to its candidate worker indices.

    A singleton tuple in the common case; a read on a split hot slot
    returns the slot's whole read fan (any member may serve it, writes
    never do); a cross-worker multi-key command returns
    ``(BARRIER,)``.  Without a placement table this is exactly the
    static ``slot % num_workers`` partition."""
    if route == ROUTE_CONTROL:
        return (0,)
    if route == ROUTE_BARRIER:
        return (BARRIER,)
    if isinstance(route, int):
        if placement is None:
            return (route % num_workers,)
        if readonly:
            fan = placement.split_of_slot(route)
            if fan is not None:
                return fan
        return (placement.worker_of_slot(route),)
    if placement is None:
        workers = {slot % num_workers for slot in route}
    else:
        workers = {placement.worker_of_slot(slot) for slot in route}
    if len(workers) == 1:
        return (workers.pop(),)
    return (BARRIER,)             # cross-worker multi-key command


@dataclass(frozen=True)
class PlacementPolicy:
    """Knobs for skew-aware slot placement (the :class:`Rebalancer`).

    Loads are billed service seconds per slot, accumulated O(1) at
    dispatch and decayed by ``slot_load_decay`` every
    ``rebalance_interval`` -- an interval-stepped EWMA, so a slot that
    cools down stops looking hot.  A rebalance arms when the busiest
    core carries more than ``imbalance_threshold`` times the mean core
    load, and applies at the pool's next quiescent instant."""

    slot_load_decay: float = 0.5     # per-interval load EWMA decay
    hot_slots: int = 8               # top-N hot-slot tracker size
    rebalance_interval: float = 5e-4  # seconds between imbalance checks
    imbalance_threshold: float = 1.2  # max/mean core load that arms
    split_ways: int = 0              # read fan of a split slot (0 = all)


@dataclass
class WorkerPoolConfig:
    """Knobs for :class:`WorkerPool`.

    ``dispatch_overhead`` is the fixed per-dispatch cost a worker pays
    before executing its batch (scheduling/wakeup cost on a real core);
    adaptive batching exists to amortize it.  ``placement`` switches the
    static ``slot % K`` partition to the skew-aware placement layer
    (``None``, the default, keeps the static partition byte-for-byte).
    """

    workers: int = 1
    dispatch_overhead: float = 0.0
    adaptive_batch: bool = False
    placement: Optional[PlacementPolicy] = None


@dataclass
class RebalanceEvent:
    """One applied placement change, for demos and assertions."""

    at: float
    moved: int                 # hot slots re-homed off their default
    split_slots: Tuple[int, ...]   # slots with read fans in effect
    detail: str = ""


class Rebalancer:
    """Per-slot load accounting + greedy LPT placement of hot slots.

    :meth:`note` is the O(1) dispatch-path update: it accumulates a
    command's billed seconds under its slot and maintains the top-N
    hot-slot tracker.  :meth:`maybe_arm` runs at most once per
    ``rebalance_interval`` and reports whether core loads have drifted
    past the imbalance threshold; the pool then applies :meth:`apply`
    at its next quiescent instant (the same discipline as a live worker
    raise -- re-homing a slot under a running command would break
    single-writer semantics).

    ``apply`` is greedy longest-processing-time: cold slots keep their
    default ``slot % K`` homes (their summed load is each core's
    residual), then hot slots land heaviest-first on the currently
    least-loaded core.  If the hottest slot alone exceeds a fair core
    share -- the degenerate case no re-homing can fix -- its read-only
    commands are split across the least-loaded cores while writes stay
    pinned."""

    def __init__(self, placement: SlotPlacement,
                 policy: Optional[PlacementPolicy] = None) -> None:
        self.placement = placement
        self.policy = policy or PlacementPolicy()
        self.loads: Dict[int, float] = {}       # slot -> decayed seconds
        self.hot: Dict[int, float] = {}         # top-N subset of loads
        self.events: List[RebalanceEvent] = []
        self._last_check = 0.0

    # -- dispatch-path accounting (O(1)) ------------------------------------

    def note(self, slot: int, billed: float) -> None:
        if billed <= 0.0:
            return
        load = self.loads.get(slot, 0.0) + billed
        self.loads[slot] = load
        hot = self.hot
        if slot in hot or len(hot) < self.policy.hot_slots:
            hot[slot] = load
            return
        coldest = min(hot, key=hot.get)
        if load > hot[coldest]:
            del hot[coldest]
            hot[slot] = load

    # -- the arm/apply cycle ------------------------------------------------

    def maybe_arm(self, now: float) -> bool:
        """At most once per interval: decay the load EWMAs and report
        whether the current placement is imbalanced enough to rebalance."""
        if now - self._last_check < self.policy.rebalance_interval:
            return False
        self._last_check = now
        armed = self.imbalanced()
        decay = self.policy.slot_load_decay
        for slot in self.loads:
            self.loads[slot] *= decay
        for slot in self.hot:
            self.hot[slot] *= decay
        return armed

    def imbalanced(self) -> bool:
        """Is the busiest core past ``imbalance_threshold`` x the mean?
        Split slots count as spreading their load over their read fan."""
        per_core = self.core_loads()
        if per_core is None:
            return False
        mean = sum(per_core) / len(per_core)
        return mean > 0.0 and max(per_core) > \
            self.policy.imbalance_threshold * mean

    def core_loads(self) -> Optional[List[float]]:
        """Tracked load per core under the current placement (``None``
        when there is nothing to balance)."""
        count = self.placement.num_workers
        if count < 2 or not self.loads:
            return None
        per_core = [0.0] * count
        for slot, load in self.loads.items():
            fan = self.placement.split_of_slot(slot)
            if fan is not None:
                share = load / len(fan)
                for worker in fan:
                    per_core[worker] += share
            else:
                per_core[self.placement.worker_of_slot(slot)] += load
        return per_core

    def apply(self, now: float) -> Optional[RebalanceEvent]:
        """Recompute the placement table (call only at quiescence)."""
        count = self.placement.num_workers
        if count < 2 or not self.loads:
            return None
        hot = sorted(self.hot.items(), key=lambda item: (-item[1], item[0]))
        hot_slots = {slot for slot, _ in hot}
        residual = [0.0] * count
        for slot, load in self.loads.items():
            if slot not in hot_slots:
                residual[slot % count] += load
        self.placement.clear()
        moved = 0
        for slot, load in hot:
            target = min(range(count),
                         key=lambda worker: (residual[worker], worker))
            residual[target] += load
            self.placement.assign(slot, target)
            if target != slot % count:
                moved += 1
        split_slots: Tuple[int, ...] = ()
        total = sum(self.loads.values())
        if hot and total > 0.0:
            top_slot, top_load = hot[0]
            if top_load > total / count:
                # No re-homing can dilute a slot heavier than a fair
                # core share: fan its reads out instead.
                ways = self.policy.split_ways or count
                fan = sorted(range(count),
                             key=lambda worker: (residual[worker],
                                                 worker))[:max(2, ways)]
                self.placement.split(top_slot, fan)
                split_slots = (top_slot,)
        event = RebalanceEvent(
            at=now, moved=moved, split_slots=split_slots,
            detail=f"hot={len(hot)} moved={moved} "
                   f"split={list(split_slots)}")
        self.events.append(event)
        return event


class _WorkerState:
    """Per-core bookkeeping: the child clock, the adaptive batch size,
    and per-worker latency attribution histograms."""

    __slots__ = ("clock", "batch", "commands", "dispatches",
                 "queue_delay", "service_time", "aof_seconds")

    def __init__(self, clock: WorkerClock) -> None:
        self.clock = clock
        self.batch = 1
        self.commands = 0
        self.dispatches = 0
        self.queue_delay = LatencyHistogram()
        self.service_time = LatencyHistogram()
        self.aof_seconds = 0.0


class WorkerPool:
    """K simulated cores executing one shard's commands deterministically.

    The shard's server is constructed with its pool (see
    :class:`~repro.cluster.client.ClusterNode`) and binds itself; its
    store must be metered by this pool's :class:`ShardClock`.  Queue
    state lives on the server's connections: ``conn.pending`` holds the
    decoded requests, ``conn.intake`` one ``(arrival time, route,
    readonly, parsed)`` entry per request -- everything worked out about
    it once, at arrival -- and ``conn.outstanding`` the count of
    dispatched-but-unflushed commands.  Only a connection's *head* is
    dispatchable, and it flushes only once nothing it sent is still in
    service, so split-read routes and multi-core dispatch both keep
    replies in request order.

    The pool never walks the connection list: ``_ready`` holds the
    indices of connections with an undispatched head and ``unflushed``
    those whose transport holds reply bytes, so a dispatch pass or a
    batch completion costs what the connections *with work* cost,
    however many clients are connected.
    """

    def __init__(self, shard_clock: ShardClock, scheduler: SimClock,
                 config: Optional[WorkerPoolConfig] = None) -> None:
        self.config = config or WorkerPoolConfig()
        self.shard_clock = shard_clock
        self.workers: List[_WorkerState] = [
            _WorkerState(clock) for clock in shard_clock.workers]
        self.scheduler = scheduler
        shard_clock.run_background = self.run_background
        self.server = None          # set once, by bind()
        self._aof = None            # the store's AOF writer, if it logs
        self._tick_handle = None
        self._rr_cursor = 0
        self._ready: Set[int] = set()       # conns with a head to dispatch
        self.unflushed: Set[int] = set()    # conns holding reply bytes
        self._resize_pending = 0
        self._shed_pending = 0
        self._ewma: Optional[float] = None
        self._last_aof_writer: Optional[_WorkerState] = None
        self.retired: List[_WorkerState] = []
        self.barrier_commands = 0
        self.resizes: List[Tuple[float, int]] = []  # (time, new count)
        self.placement: Optional[SlotPlacement] = None
        self.rebalancer: Optional[Rebalancer] = None
        self._rebalance_pending = False
        # route token -> candidate workers; stale whenever the worker
        # count or the placement table changes, so those paths clear it.
        self._worker_cache: Dict[Tuple[Any, bool], Tuple[int, ...]] = {}
        if self.config.placement is not None:
            self.placement = SlotPlacement(self.config.workers)
            self.rebalancer = Rebalancer(self.placement,
                                         self.config.placement)

    # -- wiring -------------------------------------------------------------

    def bind(self, server) -> None:
        if self.server is not None:
            raise RuntimeError("worker pool already bound to a server")
        if server.store.clock is not self.shard_clock:
            raise ValueError(
                "the server's store must be metered by this pool's "
                "ShardClock (otherwise service charges land on the "
                "wrong core)")
        self.server = server
        self._aof = server.store.aof

    # -- intake (called by the server) --------------------------------------

    def note_arrivals(self, conn, count: int) -> None:
        """``count`` new requests were just decoded onto ``conn.pending``:
        timestamp them and work out, once, what each one is (well-formed
        or not, its name, keys and slot) and where it routes."""
        now = self.scheduler.now()
        pending = conn.pending
        intake = conn.intake
        for index in range(len(pending) - count, len(pending)):
            parsed = parse_command(pending[index])
            route, readonly = route_of(parsed)
            intake.append((now, route, readonly, parsed))
        self._ready.add(conn.index)

    # -- scheduling ---------------------------------------------------------

    def wake(self) -> None:
        """Run a dispatch pass at the current instant.  Callers invoke
        this as the last thing they do in their event (a delivery, a
        batch completion).  When nothing else is due by now, a tick
        scheduled here would be the very next event popped, so the pass
        runs in place and the scheduler is spared the round trip."""
        scheduler = self.scheduler
        now = scheduler.now()
        if not scheduler.nothing_due_by(now):
            self._wake_at(now)
            return
        if self._tick_handle is not None:
            self._tick_handle.cancel()      # a later follow-up: superseded
            self._tick_handle = None
        self._pump()

    def _wake_at(self, when: float) -> None:
        handle = self._tick_handle
        if handle is not None and handle.active:
            if handle.when <= when:
                return
            handle.cancel()
        self._tick_handle = self.scheduler.schedule_at(
            when, self._tick, label="worker-tick")

    def _tick(self) -> None:
        self._tick_handle = None
        self._pump()

    # -- dispatch -----------------------------------------------------------

    def _resolve(self, route, readonly: bool) -> Tuple[int, ...]:
        """Candidate workers for a routing token, memoized: the cache is
        dropped whenever the worker count or the placement table changes
        (a cached route must re-partition after a raise or shed)."""
        key = (route, readonly)
        cached = self._worker_cache.get(key)
        if cached is None:
            cached = route_workers(route, len(self.workers),
                                   self.placement, readonly)
            self._worker_cache[key] = cached
        return cached

    def _pump(self) -> None:
        """Dispatch every eligible head-of-queue command to a free worker
        (round-robin over the connections that have one), then schedule
        the next tick at the earliest instant a blocked head could run."""
        now = self.scheduler.now()
        if (self._resize_pending or self._shed_pending) \
                and not self._apply_resize(now):
            return                      # re-wakes itself at quiescence
        if self._rebalance_pending and not self._apply_rebalance(now):
            return                      # re-wakes itself at quiescence
        conns = self.server.connections
        workers = self.workers
        ready = self._ready
        while ready:
            # Ring order from the round-robin cursor.
            order = sorted(ready)
            split = bisect_left(order, self._rr_cursor)
            if 0 < split < len(order):
                order = order[split:] + order[:split]
            for position, index in enumerate(order):
                conn = conns[index]
                _, route, readonly, _ = conn.intake[0]
                candidates = self._resolve(route, readonly)
                target = candidates[0]
                if target == BARRIER:
                    if any(w.clock.now() > now for w in workers):
                        continue
                    self._rr_cursor = (index + 1) % len(conns)
                    self._dispatch_barrier(conn, now)
                    break
                if len(candidates) > 1:
                    # A split-read fan: any free member may serve it;
                    # prefer the least-busy core so the fan balances.
                    free = [w for w in candidates
                            if workers[w].clock.now() <= now]
                    if not free:
                        continue
                    target = min(
                        free, key=lambda w:
                        (workers[w].clock.busy_seconds, w))
                elif workers[target].clock.now() > now:
                    continue            # that core is mid-service
                self._rr_cursor = (index + 1) % len(conns)
                self._dispatch(workers[target], target,
                               order[position:] + order[:position], now)
                break
            else:
                # Every remaining head is blocked: tick again when the
                # first of them could run.
                self._schedule_followup(now)
                break

    def _dispatch(self, worker: _WorkerState, target: int,
                  order: List[int], now: float) -> None:
        """Drain up to B head-of-queue commands routed to ``worker``,
        gathered round-robin across the connections that have one
        (``order``: their indices, ring order from the chosen one), and
        execute them back-to-back on its core."""
        limit = worker.batch if self.config.adaptive_batch else 1
        conns = self.server.connections
        ready = self._ready
        # (conn, request, arrival, route, parsed)
        batch: List[Tuple[Any, Any, float, Any, Any]] = []
        while len(batch) < limit:
            took = False
            for index in order:
                conn = conns[index]
                if not conn.pending:
                    continue
                head = conn.intake[0]
                if target not in self._resolve(head[1], head[2]):
                    continue
                arrival, route, _, parsed = conn.intake.popleft()
                batch.append((conn, conn.pending.popleft(), arrival,
                              route, parsed))
                conn.outstanding += 1
                if not conn.pending:
                    ready.discard(index)
                took = True
                if len(batch) == limit:
                    break
            if not took:
                break
        self._tune_batch(worker, batch, limit, now)
        clock = worker.clock
        clock.idle_until(now)
        if self.config.dispatch_overhead:
            clock.advance(self.config.dispatch_overhead)
        aof = self._aof
        rebalancer = self.rebalancer
        shard_clock = self.shard_clock
        server = self.server
        began = clock.now()
        for conn, request, arrival, route, parsed in batch:
            self._note_delay(worker, now - arrival)
            written = aof.records_written if aof is not None else 0
            slot = route if (rebalancer is not None
                             and isinstance(route, int)) else None
            shard_clock.activate(clock, slot=slot)
            try:
                server._serve_parsed(conn, request, parsed)
            finally:
                billed = shard_clock.release()
            if slot is not None:
                rebalancer.note(slot, billed)
            if aof is not None and aof.records_written > written:
                self._last_aof_writer = worker
            finished = clock.now()
            worker.service_time.record(finished - began)
            began = finished        # back-to-back: the next one starts here
            worker.commands += 1
            server.loop_iterations += 1
        worker.dispatches += 1
        if rebalancer is not None and rebalancer.maybe_arm(now):
            self._rebalance_pending = True
        self.scheduler.schedule_at(
            began, partial(self._complete, [entry[0] for entry in batch]),
            label="worker-reply")

    def _dispatch_barrier(self, conn, now: float) -> None:
        """Run a whole-keyspace command: every core stops, the command's
        cost is charged to all of them, replies depart at the frontier."""
        arrival, _, _, parsed = conn.intake.popleft()
        request = conn.pending.popleft()
        conn.outstanding += 1
        if not conn.pending:
            self._ready.discard(conn.index)
        for worker in self.workers:
            worker.clock.idle_until(now)
        self._note_delay(self.workers[0], now - arrival)
        began = now
        # No active worker: the shard clock charges all cores.
        self.server._serve_parsed(conn, request, parsed)
        finish = self.shard_clock.now()
        self.workers[0].service_time.record(finish - began)
        self.workers[0].commands += 1
        self.barrier_commands += 1
        self.server.loop_iterations += 1
        self.scheduler.schedule_at(
            finish, partial(self._complete, [conn]), label="worker-reply")

    def _tune_batch(self, worker: _WorkerState, batch, limit: int,
                    now: float) -> None:
        if not self.config.adaptive_batch or not batch:
            return
        if len(batch) == limit:
            # Backlog: the worker filled its budget; give it more.
            worker.batch = min(worker.batch * 2, MAX_BATCH)
        elif now - batch[0][2] < BATCH_LOW_DELAY:
            # Queueing delay is low; shed batch budget one step at a
            # time so a burst does not leave B pinned high forever.
            worker.batch = max(worker.batch - 1, 1)

    def _note_delay(self, worker: _WorkerState, delay: float) -> None:
        worker.queue_delay.record(delay)
        self._ewma = delay if self._ewma is None \
            else EWMA_ALPHA * delay + (1.0 - EWMA_ALPHA) * self._ewma

    def _complete(self, served) -> None:
        """A batch's service time elapsed (``served``: the connection of
        each of its commands): its replies, buffered in request order,
        may now leave the NIC.  A connection flushes only once nothing it
        sent is still in service; so does a bystander holding bytes
        nobody dispatched (a ``MONITOR`` feed).  Flushes go out in
        ascending connection index."""
        for conn in served:
            conn.outstanding -= 1
        if self.unflushed:
            conns = self.server.connections
            for index in sorted(self.unflushed):
                conn = conns[index]
                if not conn.outstanding:
                    conn.transport.flush()
        if self._ready:
            self.wake()

    def _schedule_followup(self, now: float) -> None:
        """Blocked heads remain: tick again at the earliest instant one
        of them could dispatch (its worker's -- or, for a barrier, the
        slowest worker's -- free time)."""
        earliest: Optional[float] = None
        conns = self.server.connections
        workers = self.workers
        for index in self._ready:
            _, route, readonly, _ = conns[index].intake[0]
            candidates = self._resolve(route, readonly)
            if candidates[0] == BARRIER:
                when = max(w.clock.now() for w in workers)
            elif len(candidates) == 1:
                when = workers[candidates[0]].clock.now()
            else:
                when = min(workers[w].clock.now() for w in candidates)
            if when < now:
                when = now
            if earliest is None or when < earliest:
                earliest = when
        if earliest is not None:
            self._wake_at(earliest)

    # -- background work (cron) attribution ---------------------------------

    def cron_tick(self) -> None:
        """Run the store's cron (expiry cycles, vacuum; no fsync -- each
        device's everysec timer does that) as background work."""
        self.run_background(self.server.tick)

    def run_background(self, work: Callable[[], None]) -> None:
        """Run background work -- the cron, a firing of a device's timer
        (every recurring timer on :attr:`shard_clock`) -- billing its
        cost to the worker that *caused* it: the core that executed the
        most recent AOF-appending write.  Without this, the cron's
        expiry deletions and their log writes would stop the world --
        every core billed for one core's work.  A timer's everysec fsync
        is queued on its device and bills no core (only a barrier still
        in flight, which it waits out, costs the last writer).  With one
        worker this is numerically identical to stop-the-world.
        """
        self.shard_clock.sleep_until(self.scheduler.now())
        writer = self._last_aof_writer
        if writer is None or writer not in self.workers:
            writer = self.workers[0]
        before = writer.clock.busy_seconds
        self.shard_clock.activate(writer.clock)
        try:
            work()
        finally:
            self.shard_clock.release()
        writer.aof_seconds += writer.clock.busy_seconds - before

    # -- live scale-up / scale-down -----------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def add_worker(self) -> int:
        """Request one more core.  The raise applies at the next instant
        no command is mid-service (quiescence), because re-partitioning
        the keyspace under a running command would break single-writer
        semantics; returns the worker count the pool is heading for."""
        self._resize_pending += 1
        self._wake_at(self.scheduler.now())
        return len(self.workers) + self._resize_pending - self._shed_pending

    def remove_worker(self) -> int:
        """Request one core shed (a cold shard giving a core back).
        Applies at quiescence like :meth:`add_worker`; the pool never
        drops below one worker.  Returns the count heading for."""
        heading = len(self.workers) + self._resize_pending \
            - self._shed_pending
        if heading <= 1:
            raise ValueError("a shard needs at least one worker")
        self._shed_pending += 1
        self._wake_at(self.scheduler.now())
        return heading - 1

    def _apply_resize(self, now: float) -> bool:
        busy = [w.clock.now() for w in self.workers if w.clock.now() > now]
        if busy:
            self._wake_at(max(busy))
            return False
        for _ in range(self._resize_pending):
            clock = self.shard_clock.add_worker(now)
            self.workers.append(_WorkerState(clock))
        while self._shed_pending and len(self.workers) > 1:
            self._shed_pending -= 1
            retired = self.workers.pop()
            self.shard_clock.remove_worker()
            if self._last_aof_writer is retired:
                self._last_aof_writer = None
            self.retired.append(retired)
        self._resize_pending = 0
        self._shed_pending = 0
        self.resizes.append((now, len(self.workers)))
        # The worker count changed: the default slot partition (and any
        # placement overrides built on top of it) re-partitions, so
        # every cached route resolution is stale.
        if self.placement is not None:
            self.placement.resize(len(self.workers))
        self._worker_cache.clear()
        return True

    # -- skew-aware rebalancing ---------------------------------------------

    def request_rebalance(self) -> bool:
        """Ask for a placement rebalance (the autoscaler's first rung).
        Returns whether one was actually armed: ``False`` without a
        placement layer, with one already pending, or when core loads
        are currently balanced -- so callers can escalate."""
        if self.rebalancer is None or self.num_workers < 2 \
                or self._rebalance_pending:
            return False
        if not self.rebalancer.imbalanced():
            return False
        self._rebalance_pending = True
        self._wake_at(self.scheduler.now())
        return True

    def _apply_rebalance(self, now: float) -> bool:
        """Apply a pending rebalance at quiescence (same discipline as a
        live worker raise: never re-home a slot under a running
        command).  Returns False -- after scheduling its own wake-up --
        while any core is still mid-service."""
        busy = [w.clock.now() for w in self.workers if w.clock.now() > now]
        if busy:
            self._wake_at(max(busy))
            return False
        self._rebalance_pending = False
        if self.rebalancer is not None \
                and self.rebalancer.apply(now) is not None:
            self._worker_cache.clear()
        return True

    @property
    def rebalances(self) -> List[RebalanceEvent]:
        return self.rebalancer.events if self.rebalancer is not None \
            else []

    # -- attribution --------------------------------------------------------

    def queueing_delay_ewma(self) -> float:
        """The per-shard queueing-delay signal the autoscaler watches:
        an EWMA of (dispatch time - arrival time) across all commands."""
        return self._ewma if self._ewma is not None else 0.0

    def merged_queue_delay(self) -> LatencyHistogram:
        merged = LatencyHistogram()
        for worker in self.workers + self.retired:
            merged.merge(worker.queue_delay)
        return merged

    def merged_service_time(self) -> LatencyHistogram:
        merged = LatencyHistogram()
        for worker in self.workers + self.retired:
            merged.merge(worker.service_time)
        return merged

    def worker_rows(self) -> List[Dict[str, float]]:
        """Per-core attribution: commands, dispatches, busy seconds,
        attributed AOF/fsync seconds, and mean + p99 queueing delay --
        the imbalance a hot key causes under the slot % K partition is
        visible here.  Live cores only; shed cores keep counting in the
        merged totals."""
        rows = []
        for worker in self.workers:
            delay = worker.queue_delay
            rows.append({
                "worker": worker.clock.index,
                "commands": worker.commands,
                "dispatches": worker.dispatches,
                "busy_seconds": worker.clock.busy_seconds,
                "aof_seconds": worker.aof_seconds,
                "mean_queue_delay": delay.mean() if delay.count else 0.0,
                "p99_queue_delay":
                    delay.percentile(99) if delay.count else 0.0,
            })
        return rows
