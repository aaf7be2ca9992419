"""The two passes over one workload: end to end (untraced) and per layer.

The untraced pass sets up three times (``setup_s`` is the median), runs the
whole op list in calibrated slices, takes the end-to-end metrics, verifies
the outputs and runs the baseline stack for the slowdown ratio.  The traced
pass runs a quarter of the ops under :mod:`layertrace` on a freshly built
stack and reports where the time went on both clocks; its harness rows
(raw wall numbers, tracing overhead, exact Python call count) come from an
untraced prefix run in the same process.
"""

from __future__ import annotations

import gc
import resource
import statistics
from typing import Dict, List, Optional, Tuple

import calibration
import layertrace
import metrics
import workloads as wl

SETUP_REPEATS = 3
SETUP_REGIONS = ("gen", "build", "load")
TRACE_FRACTION = 0.25       # share of the run-phase ops the traced pass runs
PREFIX_FRACTION = 0.125     # untraced prefix timed for trace.overhead_x
PY_CALL_SAMPLE = 1000       # ops counted under sys.setprofile

Value = Tuple[float, int]   # (value, sample count)


class Result:
    """What one pass produced: named values with their sample counts."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.values: Dict[str, Value] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: Dict[str, object] = {}

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.values[name] = (float(value), samples)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _setup(cls, seed: int, seconds: float, smoke: bool,
           timer=None, **build_args):
    timer = timer if timer is not None else calibration.SliceTimer()
    workload = cls(seed, seconds, smoke)
    workload.generate(timer)
    stack = workload.build(timer, **build_args)
    return workload, stack, timer


def _check(result: Result, check, *args) -> None:
    try:
        check(*args)
    except wl.CheckFailure as failure:
        result.problems.append(str(failure))


def _us(seconds: float) -> float:
    return seconds * 1e6


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _latency_rows(result: Result, reads: List[float],
                  writes: List[float]) -> None:
    for kind, samples in (("read", reads), ("write", writes)):
        result.put(f"sim_{kind}_mean_us", _us(statistics.fmean(samples)),
                   len(samples))
        result.put(f"sim_{kind}_p99_us", _us(wl.percentile(samples, 99)),
                   len(samples))


def knee(steps: List[wl.StepResult]) -> float:
    good = [step.rate for step in steps if step.below_knee()]
    return max(good) if good else 0.0


def run_phase(workload, stack, timer, ops=None, tracer=None):
    """The measured run: a ``ClosedLoopRun``, or the open loop's
    ``StepResult`` list (``stack`` is then one runner per offered step)."""
    if workload.closed_loop:
        return wl.run_closed_loop(workload, stack, timer, ops=ops,
                                  tracer=tracer)
    return [wl.run_step(runner, timer, tracer) for runner in stack]


# -- the untraced pass ---------------------------------------------------------


def end_to_end(cls, seed: int, seconds: float, smoke: bool) -> Result:
    result = Result(cls.name)
    setups = []
    workload = stack = None
    for _ in range(SETUP_REPEATS):
        # One stack alive at a time, its reference cycles included: left to
        # the collector's own schedule, how many dead clusters overlap the
        # next set-up varies, and peak_rss_mb with it (85-117 MiB measured).
        del workload, stack
        gc.collect()
        workload, stack, timer = _setup(cls, seed, seconds, smoke)
        setups.append(timer)
    gc.collect()
    gc.freeze()
    timer = calibration.SliceTimer()
    outcome = run_phase(workload, stack, timer)
    if cls.closed_loop:
        _closed_loop_metrics(result, workload, outcome)
    else:
        _open_loop_metrics(result, workload, outcome)
    rates = timer.rates("run")
    result.put("host_ops_per_s", statistics.median(rates), len(rates))
    result.put("setup_s", statistics.median(
        setup.seconds(SETUP_REGIONS) for setup in setups), SETUP_REPEATS)
    result.put("peak_rss_mb", resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    kernels = [k for setup in setups for k in setup.kernels] + timer.kernels
    result.notes.update({
        "host.raw_wall_ops_per_s": statistics.median(
            timer.rates("run", calibrated=False)),
        "host.raw_setup_s": statistics.median(
            setup.seconds(SETUP_REGIONS, calibrated=False)
            for setup in setups),
        "host.calib_slowdown_median": calibration.slowdown(kernels),
        "host.calib_spread": calibration.spread(kernels),
        "host.run_slice_spread": calibration.spread(timer.calibrated["run"]),
        "host.run_slices": len(rates),
    })
    return result


def _closed_loop_metrics(result: Result, workload,
                         run: wl.ClosedLoopRun) -> None:
    result.attempted = run.attempted
    result.failed = run.failed
    sim_ops = run.attempted / run.busy_seconds
    result.put("sim_ops_per_s", sim_ops, run.attempted)
    _latency_rows(result, run.latency[wl.READ], run.latency[wl.UPDATE])
    result.put("sim_dev_bytes_per_user_byte",
               run.device_bytes() / run.user_bytes_written,
               run.counts[wl.UPDATE])
    result.put("sim_hot_bytes_per_user_byte",
               run.hot_bytes() / run.live_user_bytes(), len(run.shadow))
    erase = run.latency[wl.ERASE]
    if erase:
        result.put("sim_erase_p50_ms", _ms(wl.percentile(erase, 50)),
                   len(erase))
        result.put("sim_erase_p90_ms", _ms(wl.percentile(erase, 90)),
                   len(erase))
    access = run.latency[wl.ACCESS]
    if access:
        result.put("sim_access_p50_ms", _ms(wl.percentile(access, 50)),
                   len(access))
    _check(result, run.verify)
    try:
        baseline = wl.run_baseline(workload)
    except wl.CheckFailure as failure:
        result.problems.append(str(failure))
        baseline = sim_ops
    result.put("sim_slowdown_x", baseline / sim_ops, run.attempted)
    result.notes["baseline_sim_ops_per_s"] = baseline


def _open_loop_metrics(result: Result, workload,
                       steps: List[wl.StepResult]) -> None:
    top, lat = steps[-1], steps[wl.LAT_STEP]
    result.attempted = sum(step.report.admitted for step in steps)
    result.failed = sum(step.failed for step in steps)
    result.put("sim_ops_per_s", top.report.throughput, top.report.completed)
    _latency_rows(result, lat.runner.read_latency, lat.runner.write_latency)
    writes = sum(len(step.runner.write_latency) for step in steps)
    result.put("sim_dev_bytes_per_user_byte",
               sum(step.device_bytes for step in steps)
               / (writes * wl.RECORD_BYTES), writes)
    resident = sum(wl.resident_bytes(node.store)
                   for node in lat.cluster.client.nodes)
    result.put("sim_hot_bytes_per_user_byte",
               resident / (workload.records_n * wl.RECORD_BYTES),
               workload.records_n)
    result.put("sim_knee_ops_per_s", knee(steps), len(steps))
    for index, step in enumerate(steps):
        _check(result, wl.verify_step, workload, index, step)
    result.notes["steps"] = [
        {"offered": step.rate,
         "ops_per_s": step.report.throughput,
         "p50_us": _us(wl.percentile(step.latencies, 50)),
         "p99_us": _us(wl.percentile(step.latencies, 99)),
         "max_backlog": step.report.max_backlog,
         "backlog_at_close": step.runner.backlog_at_close,
         "below_knee": step.below_knee()} for step in steps]
    baseline = wl.run_step(workload.build_baseline(), wl.NullTimer())
    result.put("sim_slowdown_x",
               baseline.report.throughput / top.report.throughput,
               top.report.completed)
    result.notes["baseline_sim_ops_per_s"] = baseline.report.throughput


# -- the traced pass -----------------------------------------------------------


def per_layer(cls, seed: int, seconds: float, smoke: bool) -> Result:
    result = Result(cls.name)
    workload, stack, setup_timer = _setup(cls, seed, seconds, smoke)
    gc.collect()
    gc.freeze()
    # Untraced prefix on the first stack: raw and calibrated host time
    # per op, then an exact Python call count on the ops that follow.
    timer = calibration.SliceTimer()
    if cls.closed_loop:
        prefix_n = max(1, int(workload.ops_n * PREFIX_FRACTION))
        sample = workload.ops[prefix_n:prefix_n + PY_CALL_SAMPLE]
        prefix = wl.run_closed_loop(workload, stack, timer,
                                    ops=workload.ops[:prefix_n])
        calls = layertrace.count_python_calls(
            lambda: prefix.execute(sample, 0, len(sample)))
        sample_ops = sum(1 for op in sample if op[0] != wl.IDLE)
    else:
        wl.run_step(stack[0], timer)
        counted = stack[2]
        sample_ops = min(PY_CALL_SAMPLE, counted.spec.operation_count)
        counted.begin(sample_ops)
        calls = layertrace.count_python_calls(
            counted.clock.run_until_idle)
    untraced = statistics.median(timer.rates("run"))
    result.put("host.py_calls_per_op", calls / sample_ops, sample_ops)
    result.put("host.raw_wall_ops_per_s", statistics.median(
        timer.rates("run", calibrated=False)), len(timer.raw["run"]))
    result.put("host.raw_setup_s",
               setup_timer.seconds(SETUP_REGIONS, calibrated=False))
    del stack

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        # Set-up again under the wrappers (so every callback the new stack
        # captures is a traced one) -- this is also where ycsb.gen runs.
        traced_setup = calibration.SliceTimer()
        tracer.on = True
        build_args = {} if cls.closed_loop else {"fraction": TRACE_FRACTION}
        workload, stack, _ = _setup(cls, seed, seconds, smoke,
                                    timer=traced_setup, **build_args)
        tracer.on = False
        result.put("ycsb.gen.host_share_of_setup",
                   tracer.root_host_ns("ycsb.gen") / 1e9
                   / traced_setup.seconds(SETUP_REGIONS, calibrated=False))
        tracer.clear()
        traced = calibration.SliceTimer()
        tracer.on = True
        if cls.closed_loop:
            traced_n = max(1, int(workload.ops_n * TRACE_FRACTION))
            stack.clock.enable_trace()
            run = run_phase(workload, stack, traced,
                            ops=workload.ops[:traced_n], tracer=tracer)
            tracer.on = False
            _closed_loop_layers(result, workload, run, tracer)
        else:
            events = [runner.clock.enable_trace() for runner in stack]
            steps = run_phase(workload, stack, traced, tracer=tracer)
            tracer.on = False
            _open_loop_layers(result, workload, steps, tracer,
                              sum(len(fired) for fired in events))
    finally:
        tracer.remove()
    result.put("trace.overhead_x",
               untraced / statistics.median(traced.rates("run")))
    kernels = setup_timer.kernels + timer.kernels + traced.kernels
    result.put("host.calib_slowdown_median", calibration.slowdown(kernels),
               len(kernels))
    result.put("host.calib_spread", calibration.spread(kernels),
               len(kernels))
    for metric in metrics.PER_LAYER:        # layers this workload never
        result.values.setdefault(metric.name, (0.0, 0))     # enters: 0
    return result


def _layer_rows(result: Result, tracer: layertrace.Tracer,
                ops: int) -> float:
    """The three per-layer rows; returns simulated seconds accounted."""
    host_seconds = _traced_host_seconds(tracer)
    accounted = 0.0
    for layer, row in tracer.aggregate().items():
        if layer not in metrics.RUN_LAYERS:
            continue
        simulated = row["sim_charged"] + row["sim_waited"]
        accounted += simulated
        result.put(f"{layer}.calls_per_op", row["calls"] / ops, ops)
        result.put(f"{layer}.sim_self_us_per_op", _us(simulated) / ops, ops)
        result.put(f"{layer}.host_self_share",
                   row["host_self_ns"] / 1e9 / host_seconds, row["calls"])
    return accounted


def _traced_host_seconds(tracer: layertrace.Tracer) -> float:
    """Host time under the outermost spans: the traced total."""
    return sum(span[layertrace.S_HOST1] - span[layertrace.S_HOST0]
               for span in tracer.spans
               if span[layertrace.S_PARENT] < 0) / 1e9


def _calls(tracer: layertrace.Tracer, name: str,
           parent: Optional[str] = None) -> int:
    """Spans of entry point ``name`` (optionally: directly under
    ``parent``)."""
    index = tracer.names.index(name)
    parent_index = tracer.names.index(parent) if parent else None
    spans = tracer.spans
    return sum(
        1 for span in spans
        if span[layertrace.S_NAME] == index and (
            parent_index is None
            or (span[layertrace.S_PARENT] >= 0
                and spans[span[layertrace.S_PARENT]][layertrace.S_NAME]
                == parent_index)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _closed_loop_layers(result: Result, workload, run: wl.ClosedLoopRun,
                        tracer: layertrace.Tracer) -> None:
    ops = run.attempted
    result.attempted = ops
    result.failed = run.failed
    stack = run.stack
    store = stack.store
    engine = stack.engine
    accounted = _layer_rows(result, tracer, ops)
    result.put("trace.sim_unattributed_us_per_op",
               _us(run.busy_seconds - accounted) / ops, ops)
    result.notes["sim_latency_us_per_op"] = _us(run.busy_seconds) / ops
    result.put("device.fsyncs_per_op", run.device_fsyncs() / ops, ops)
    result.put("device.syscalls_per_op", run.device_syscalls() / ops, ops)
    result.put("device.bytes_per_op", run.device_bytes() / ops, ops)
    loaded = len(workload.records) + len(getattr(workload, "hot_keys", ()))
    result.put("gdpr.audit.records_per_op",
               (store.audit.record_count - loaded) / ops, ops)
    result.put("gdpr.audit.blocks_sealed", store.audit.blocks_sealed)
    enqueued = _calls(tracer, "gdpr.indexing.WriteBehindIndexer.enqueue")
    writebehind = getattr(store, "_writebehind", None)
    if writebehind is not None:
        result.put("gdpr.indexing.coalesce_ratio",
                   _ratio(enqueued - writebehind.coalesced, enqueued),
                   enqueued)
    erase, access = run.latency[wl.ERASE], run.latency[wl.ACCESS]
    result.put("gdpr.rights.sim_erase_p50_ms",
               _ms(wl.percentile(erase, 50)), len(erase))
    result.put("gdpr.rights.sim_access_p50_ms",
               _ms(wl.percentile(access, 50)), len(access))
    lookups = _calls(tracer, "crypto.keystore.KeyStore.cipher_for")
    misses = _calls(tracer, "crypto.keystore.KeyStore.get_key",
                    parent="crypto.keystore.KeyStore.cipher_for")
    result.put("crypto.keystore.cipher_cache_hit_ratio",
               _ratio(lookups - misses, lookups), lookups)
    plans = getattr(engine, "plans", None)
    if plans is not None:
        result.put("sqlstore.planner.hit_ratio",
                   _ratio(plans.hits, plans.hits + plans.misses),
                   plans.hits + plans.misses)
    if getattr(engine, "supports_tiering", False):
        probes = _calls(tracer, "tiering.segment.ColdSegmentStore.lookup")
        result.put("tiering.segment.bloom_false_positives_per_lookup",
                   _ratio(engine.cold.bloom_false_positives, probes), probes)
        result.put("tiering.segment.resident_bytes_per_user_byte",
                   engine.cold.resident_bytes() / run.live_user_bytes())
        result.put("tiering.engine.promotions_per_op",
                   engine.promotions / ops, ops)
        result.put("tiering.engine.demotions", engine.demotions)
    fired = stack.clock.trace
    result.put("common.clock.events_per_op",
               len(fired) / ops if fired is not None else 0.0, ops)
    _check(result, run.verify)


def _open_loop_layers(result: Result, workload, steps: List[wl.StepResult],
                      tracer: layertrace.Tracer, events: int) -> None:
    ops = sum(step.report.completed for step in steps)
    result.attempted = sum(step.report.admitted for step in steps)
    result.failed = sum(step.failed for step in steps)
    accounted = _layer_rows(result, tracer, ops)
    # Waiting the spans cannot see, from the stack's own histograms: for a
    # free client (the runner's backlog) and for a free core (the pools).
    backlog_wait = sum(step.report.queue_delay.total for step in steps)
    core_wait = sum(step.report.server_queue_delay.total for step in steps)
    name = "cluster.workers.sim_self_us_per_op"
    result.put(name, result.values[name][0] + _us(core_wait) / ops, ops)
    latency = sum(sum(step.latencies) for step in steps)
    result.put("trace.sim_unattributed_us_per_op",
               _us(latency - accounted - core_wait - backlog_wait) / ops,
               ops)
    result.notes["sim_latency_us_per_op"] = _us(latency) / ops
    result.notes["sim_backlog_wait_us_per_op"] = _us(backlog_wait) / ops
    result.put("device.fsyncs_per_op",
               sum(step.device_fsyncs for step in steps) / ops, ops)
    result.put("device.syscalls_per_op",
               sum(step.device_syscalls for step in steps) / ops, ops)
    result.put("device.bytes_per_op",
               sum(step.device_bytes for step in steps) / ops, ops)
    result.put("common.clock.events_per_op", events / ops, ops)
    lat = steps[wl.LAT_STEP].report
    result.put("cluster.workers.queue_p99_us",
               _us(lat.server_queue_delay.percentile(99)),
               lat.server_queue_delay.count)
    result.put("cluster.workers.service_p99_us",
               _us(lat.server_service_time.percentile(99)),
               lat.server_service_time.count)
    rows = [row for step in steps for row in step.report.worker_rows]
    result.put("cluster.workers.mean_batch",
               _ratio(sum(row["commands"] for row in rows),
                      sum(row["dispatches"] for row in rows)), len(rows))
    result.put("cluster.client.redirects",
               sum(step.report.redirects_followed for step in steps))
    result.put("ycsb.openloop.sim_knee_ops_per_s", knee(steps), len(steps))
    for index, step in enumerate(steps):
        result.put(f"ycsb.openloop.max_backlog_step{index + 1}",
                   step.report.max_backlog, step.report.admitted)
        _check(result, wl.verify_step, workload, index, step)
