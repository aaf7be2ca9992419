"""Queueing-delay autoscaler: close the loop the hockey-stick exposes.

The hockey-stick artifact shows what happens when offered load crosses a
shard's service capacity: queueing delay -- not service time -- explodes.
:class:`Autoscaler` watches exactly that signal (each target's
queueing-delay EWMA, e.g. :meth:`WorkerPool.queueing_delay_ewma
<repro.cluster.workers.WorkerPool.queueing_delay_ewma>`) from a
recurring **daemon** timer on the shared scheduler, so it runs *while an
open-loop workload keeps offering load* and never keeps the simulation
alive on its own.

Escalation ladder, per target, rate-limited by a cooldown:

1. the EWMA crosses :attr:`AutoscaleConfig.high_delay` and the target
   runs skew-aware placement with a measurable core imbalance ->
   **rebalance** first (``request_rebalance()`` re-homes hot slots at
   the pool's next quiescent instant) -- cheaper than adding a core
   when the problem is placement, not capacity;
2. otherwise, if the target has worker headroom -> **raise the worker
   count** (a live ``add_worker()``, applied at the pool's next
   quiescent instant);
3. the target is already at :attr:`AutoscaleConfig.max_workers` and is
   still hot -> invoke the **scale-out hook** (shard-add + live
   ``rebalance()`` under load -- see
   :meth:`ShardedGDPRStore.attach_autoscaler
   <repro.cluster.sharded_store.ShardedGDPRStore.attach_autoscaler>`),
   at most :attr:`AutoscaleConfig.max_scale_outs` times.

And the reverse rung: when :attr:`AutoscaleConfig.low_delay` is set and
a target's EWMA stays below it for a full cooldown window, one worker is
shed (a live ``remove_worker()``, also applied at quiescence), never
dropping below one core.  Scale-down is off by default
(``low_delay=0``).

Every action is recorded as an :class:`AutoscaleEvent`, which is what
the bench demo prints and the tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..common.clock import SimClock


@dataclass
class AutoscaleConfig:
    """Knobs for :class:`Autoscaler`."""

    interval: float = 0.005          # daemon check period (seconds)
    high_delay: float = 300e-6       # EWMA threshold that means "hot"
    low_delay: float = 0.0           # EWMA below this for a full
    #                                  cooldown window -> shed a worker
    #                                  (0 disables scale-down)
    max_workers: int = 4             # per-target worker ceiling
    cooldown: float = 0.01           # per-target seconds between actions
    max_scale_outs: int = 1          # shard-adds/rebalances allowed


@dataclass
class AutoscaleEvent:
    """One autoscaling action, for demos and assertions."""

    at: float
    target: int
    action: str        # "rebalance", "worker-raise", "worker-shed",
    #                    "scale-out"
    signal: float                    # the EWMA that triggered it
    detail: str = ""


class SignalProbe:
    """Adapt a bare EWMA callable into an autoscale target with no
    worker pool: every threshold crossing escalates straight to the
    scale-out hook.  This is how layers without per-core pools (the
    GDPR sharded store) plug their own saturation signal in."""

    def __init__(self, signal: Callable[[], float]) -> None:
        self._signal = signal

    def queueing_delay_ewma(self) -> float:
        return self._signal()


class Autoscaler:
    """Watch per-target queueing-delay EWMAs; raise workers, then spill.

    ``targets`` are duck-typed: anything with ``queueing_delay_ewma()``
    qualifies; targets additionally exposing ``num_workers`` /
    ``add_worker()`` (a :class:`~repro.cluster.workers.WorkerPool`) get
    the worker-raise rung of the ladder.
    """

    def __init__(self, scheduler: SimClock, targets: Sequence,
                 config: Optional[AutoscaleConfig] = None,
                 scale_out: Optional[Callable[["Autoscaler", int],
                                              str]] = None) -> None:
        if not hasattr(scheduler, "schedule_after"):
            raise ValueError(
                "the autoscaler needs a scheduling clock (SimClock)")
        self.scheduler = scheduler
        self.targets = list(targets)
        self.config = config or AutoscaleConfig()
        self.scale_out = scale_out
        self.events: List[AutoscaleEvent] = []
        self.checks = 0
        self._scale_outs = 0
        self._last_action = [-float("inf")] * len(self.targets)
        self._cold_since: List[Optional[float]] = [None] * len(self.targets)
        self._handle = None

    # -- the daemon timer ---------------------------------------------------

    def start(self) -> None:
        if self._handle is not None and self._handle.active:
            return
        self._handle = self.scheduler.every(self.config.interval, self.check,
                                            label="autoscale")

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- one control decision ----------------------------------------------

    def check(self) -> Optional[AutoscaleEvent]:
        """Evaluate every target once; returns the action taken (at most
        one per check, so consecutive raises are observable)."""
        self.checks += 1
        now = self.scheduler.now()
        for index, target in enumerate(self.targets):
            signal = target.queueing_delay_ewma()
            self._track_cold_streak(index, signal, now)
            if now - self._last_action[index] < self.config.cooldown:
                continue
            if signal <= self.config.high_delay:
                event = self._maybe_shed(index, target, signal, now)
                if event is None:
                    continue
            else:
                add_worker = getattr(target, "add_worker", None)
                workers = getattr(target, "num_workers", 0)
                rebalance = getattr(target, "request_rebalance", None)
                if rebalance is not None and rebalance():
                    event = AutoscaleEvent(
                        now, index, "rebalance", signal,
                        detail="hot-slot re-home at quiescence")
                elif add_worker is not None \
                        and workers < self.config.max_workers:
                    heading_for = add_worker()
                    event = AutoscaleEvent(
                        now, index, "worker-raise", signal,
                        detail=f"workers -> {heading_for}")
                elif (self.scale_out is not None
                      and self._scale_outs < self.config.max_scale_outs):
                    detail = self.scale_out(self, index)
                    self._scale_outs += 1
                    event = AutoscaleEvent(now, index, "scale-out", signal,
                                           detail=detail or "")
                else:
                    continue
            self._last_action[index] = now
            self.events.append(event)
            return event
        return None

    def _track_cold_streak(self, index: int, signal: float,
                           now: float) -> None:
        """A cold streak is contiguous observation time with the EWMA
        under ``low_delay``; any sample at or above it resets the
        streak.  Tracked even while the cooldown gate is closed so the
        streak measures real wall time, not actionable checks."""
        if self.config.low_delay <= 0.0:
            return
        if signal < self.config.low_delay:
            if self._cold_since[index] is None:
                self._cold_since[index] = now
        else:
            self._cold_since[index] = None

    def _maybe_shed(self, index: int, target, signal: float,
                    now: float) -> Optional[AutoscaleEvent]:
        """Scale-down rung: shed one worker once the target has stayed
        cold for a full cooldown window (never below one worker)."""
        if self.config.low_delay <= 0.0:
            return None
        cold_since = self._cold_since[index]
        if cold_since is None or now - cold_since < self.config.cooldown:
            return None
        remove_worker = getattr(target, "remove_worker", None)
        if remove_worker is None or getattr(target, "num_workers", 1) <= 1:
            return None
        heading_for = remove_worker()
        self._cold_since[index] = None   # the next shed needs a new streak
        return AutoscaleEvent(now, index, "worker-shed", signal,
                              detail=f"workers -> {heading_for}")
