"""Helpers shared by the test suite (imported as ``tests.support``: the
suite runs as ``python -m pytest`` from the repository root)."""

import gc
import sys
from typing import (
    Any, Callable, Dict, Iterable, Iterator, NamedTuple, Optional)


class CallCount(NamedTuple):
    total: int                      # every Python-level call
    watched: Dict[Callable, int]    # calls of each watched function
    result: Any                     # what ``work`` returned


def py_calls(work: Callable[[], Any],
             watched: Iterable[Callable] = ()) -> CallCount:
    """Run ``work`` under ``sys.setprofile`` and count Python-level
    function calls (the benchmark's ``host.py_calls_per_op``): a count,
    not a wall-clock floor, so it repeats exactly on any host."""
    by_code = {fn.__code__: fn for fn in watched}
    counts = dict.fromkeys(by_code.values(), 0)
    total = 0

    def profiler(frame, event, arg):
        nonlocal total
        if event == "call":
            total += 1
            fn = by_code.get(frame.f_code)
            if fn is not None:
                counts[fn] += 1

    # The collector is paused: hypothesis, once an earlier test of the run
    # has used it, keeps a Python-level ``gc.callbacks`` hook, and every
    # collection that happens to fall inside ``work`` would count as two
    # calls (seen: 87 against 85).
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = work()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return CallCount(total, counts, result)


def _make_kv(clock):
    from repro.kvstore import KeyValueStore, StoreConfig

    return KeyValueStore(StoreConfig(appendonly=True, aof_log_reads=False),
                         clock=clock)


def _make_sql(clock):
    from repro.sqlstore import RelationalStore, SqlConfig

    return RelationalStore(SqlConfig(wal_enabled=True, wal_log_reads=False),
                           clock=clock)


def _tiered(base_factory):
    def make(clock):
        from repro.tiering import TieredEngine, TieringConfig

        return TieredEngine(
            base_factory(clock),
            tiering=TieringConfig(demote_idle_after=4, demote_interval=1,
                                  segment_max_records=4))
    return make


#: engine variant -> ``factory(clock)``: both engines, and each behind
#: the tiering wrapper with demotion aggressive enough that records
#: routinely cross tiers mid-test.
ENGINE_FACTORIES = {
    "redislike": _make_kv,
    "relational": _make_sql,
    "tiered-redislike": _tiered(_make_kv),
    "tiered-relational": _tiered(_make_sql),
}


class CrashPoint(NamedTuple):
    stack: Any              # what ``build()`` returned, after the run
    plan: Any               # its FaultPlan, still attached
    steps: list             # the device steps the operation took
    lost: Optional[str]     # the PowerLoss raised; None: the run returned
    recovered: Any          # ``restart(stack)``, after a power loss


def _reopen(stack):
    return stack.reopen()


def crashpoints(build: Callable[[], Any], operation: Callable[[Any], Any],
                devices: Callable[[Any], Iterable],
                restart: Callable[[Any], Any] = _reopen
                ) -> Iterator[CrashPoint]:
    """Every state a power cut can leave ``operation`` in, restarted:
    run once on ``build()`` under a ``FaultPlan`` over ``devices(stack)``
    to record its device steps, then, on a fresh stack each, with power
    cut before each step in turn (the cut must raise ``PowerLoss``
    having taken exactly the recorded steps before it: a dark device
    takes no more), and last to the end (it must take exactly the
    recorded steps).  Each of those runs then loses power -- the one
    that returned too, right after its return -- and ``restart(stack)``
    (default: ``stack.reopen()``) recovers it; the point carries what
    the restart returned, and ``steps``, the device steps the operation
    took (copied before the power loss: what the caller does to the
    recovered stack adds none).  The points come in step order; the
    caller checks each recovered state's post-conditions.  A test that means
    another restart (a second recovery, time passing first) passes its
    own ``restart``: no caller power-loses or restarts a point."""
    from repro.device.faults import FaultPlan, PowerLoss

    def run(cut=None):
        stack = build()
        plan = FaultPlan(*devices(stack))
        if cut is not None:
            plan.cut(cut)
        lost = None
        try:
            operation(stack)
        except PowerLoss as cut_off:
            lost = str(cut_off)
        return CrashPoint(stack, plan, list(plan.steps), lost, None)

    steps = run().steps
    for at in range(len(steps) + 1):
        point = run(at if at < len(steps) else None)
        assert (point.lost is None) == (at == len(steps)), \
            f"cut before step {at} of {steps}: it returned"
        assert point.steps == steps[:at], \
            f"the run took {point.steps}, recorded {steps[:at]}"
        point.plan.power_loss()
        yield point._replace(recovered=restart(point.stack))


def restarts_agree(point: CrashPoint, state: Callable[[Any], Any]) -> Any:
    """``state(point.recovered)``, which a power loss and a second
    restart, ``point.recovered.reopen()``, must give again: a restart
    that left dropped writes to become durable later would differ.  The
    second restart supersedes ``point.recovered``: write nothing through
    it afterwards."""
    first = state(point.recovered)
    point.plan.power_loss()
    assert state(point.recovered.reopen()) == first, point.lost
    return first


def pre_or_post(recovered: Dict, pre: Dict, post: Dict) -> None:
    """Each key of a recovered ``key -> state`` map, or of the map
    before or after the operation, holds its state before or after it
    (absent counts as a state)."""
    for key in {*recovered, *pre, *post}:
        assert recovered.get(key) in (pre.get(key), post.get(key)), \
            (key, recovered.get(key))


def durable_audit(audit) -> list:
    """The records of ``audit``'s durable blocks, whose chain verifies
    and covers every one of them."""
    from repro.gdpr.audit import AuditLog

    records = AuditLog.parse(audit.log.read_durable())
    assert audit.verify_durable() == len(records)
    return records


def parts_of(aof) -> set:
    """``aof``'s parts (an :class:`~repro.kvstore.aof.AofWriter`'s), as
    the objects it holds: a rewrite replaces every part it rewrites with
    a new one, whether the new file is renamed over the old part's name
    or gets a fresh one, so ``len(before - parts_of(aof))`` counts the
    parts a rewrite retired."""
    return set(aof._parts)


def one_core_server(scheduler, **config):
    """A ``KeyValueStore(StoreConfig(**config))`` served by a one-core
    event-driven server on ``scheduler`` -- the single-node deployment
    the Figure 1 configurations measure.  Open connections with
    ``EventConnection(server, channel=..., psk=...)``."""
    from repro.cluster.workers import WorkerPool
    from repro.common.clock import ShardClock
    from repro.kvstore import EventStoreServer, KeyValueStore, StoreConfig

    meter = ShardClock(scheduler.now(), scheduler=scheduler)
    return EventStoreServer(KeyValueStore(StoreConfig(**config), clock=meter),
                            WorkerPool(meter, scheduler))


def assert_refused(store, *argv) -> None:
    """``argv`` names a command the store does not serve: it is refused
    as unknown, and the keyspace is byte-for-byte what it was."""
    import pytest

    from repro.common.errors import UnknownCommandError
    from repro.kvstore.aof import image

    before = image(store)
    with pytest.raises(UnknownCommandError, match="unknown command"):
        store.execute(*argv)
    assert image(store) == before
