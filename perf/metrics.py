"""Metric definitions: names, units, directions, bounds -- one table.

``BENCHMARK.json`` at the repo root carries the contract's view of this
table (``perf/tests`` checks the two agree): the end-to-end metrics every
workload emits, and the per-layer metrics of the traced pass.  The
workload-specific end-to-end metrics in :data:`EXTRA_END_TO_END` cannot be
in that file -- its rules want every end-to-end metric on every workload and
never zero -- so they are printed, written by ``--out`` and gated by
``perf/compare.py`` only.

``bound`` is the share of the reference median by which a metric may get
worse before it counts as a regression.  Simulated metrics repeat exactly
for a given seed, but the driver's acceptance rule compares runs made on
*different* seeds, so their bounds in ``BENCHMARK.json`` are sized from the
seed-to-seed spread (three times the widest spread any workload showed in
two sets of ten seeds, capped at the contract's 25 %), not from run-to-run
noise, which is zero.  The host bounds are sized from this machine's
run-to-run spread; ``perf/README.md`` ("Noise and bounds") has the
measurement behind every number.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import layertrace


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                         # "higher" | "lower"
    bound: Optional[float] = None       # None: reported, never gated
    workloads: Optional[Tuple[str, ...]] = None     # None: all of them
    why: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("sim_ops_per_s", "1/s", "higher", 0.08, None,
           "run-phase ops per simulated second (open loop: completions per "
           "simulated second at the highest offered step)"),
    Metric("sim_slowdown_x", "x", "lower", 0.05, None,
           "the identical op stream through the non-compliant baseline "
           "stack, divided by sim_ops_per_s: the paper's headline ratio"),
    Metric("sim_read_mean_us", "us", "lower", 0.06, None,
           "read latency on the simulated clock, mean"),
    Metric("sim_read_p99_us", "us", "lower", 0.25, None,
           "read latency, 99th percentile"),
    Metric("sim_write_mean_us", "us", "lower", 0.05, None,
           "update latency, mean"),
    Metric("sim_write_p99_us", "us", "lower", 0.25, None,
           "update latency, 99th percentile"),
    Metric("sim_dev_bytes_per_user_byte", "x", "lower", 0.12, None,
           "bytes written to every device (AOF/WAL, audit log, cold "
           "segments) in the run phase per user payload byte written"),
    Metric("sim_hot_bytes_per_user_byte", "x", "lower", 0.15, None,
           "hot-tier resident key+value bytes at the end per live user "
           "payload byte"),
    Metric("host_ops_per_s", "1/s", "higher", 0.20, None,
           "ops per slice over the median calibrated slice time, run "
           "phase only"),
    Metric("setup_s", "s", "lower", 0.25, None,
           "calibrated seconds for input generation + stack build + load, "
           "median of three set-ups"),
    Metric("peak_rss_mb", "MiB", "lower", 0.12, None,
           "ru_maxrss of the workload's process"),
)

# Between two commits on the *same* seed a simulated metric is exact, so
# perf/compare.py (which groups runs by seed) holds every sim_* metric to
# this instead of the seed-to-seed allowance above.
SIM_SAME_SEED_BOUND = 0.001

EXTRA_END_TO_END: Tuple[Metric, ...] = (
    Metric("sim_erase_p50_ms", "ms", "lower", SIM_SAME_SEED_BOUND,
           ("fast_sql_rights", "tiered_cold"),
           "Art. 17 request to receipt, median"),
    Metric("sim_erase_p90_ms", "ms", "lower", SIM_SAME_SEED_BOUND,
           ("fast_sql_rights", "tiered_cold"),
           "Art. 17 request to receipt, 90th percentile"),
    Metric("sim_access_p50_ms", "ms", "lower", SIM_SAME_SEED_BOUND,
           ("fast_sql_rights",),
           "Art. 15 request to report, median"),
    Metric("sim_knee_ops_per_s", "1/s", "higher", SIM_SAME_SEED_BOUND,
           ("openloop_cores",),
           "highest fixed offered step with p99 <= 1 ms and no backlog "
           "left when admission ends"),
)

# Layers with run-phase spans; ycsb.gen runs in set-up only.
RUN_LAYERS = tuple(layer for layer in layertrace.LAYER_NAMES
                   if layer != "ycsb.gen")


def _per_layer() -> List[Metric]:
    rows: List[Metric] = []
    for layer in RUN_LAYERS:
        rows.append(Metric(f"{layer}.calls_per_op", "count", "lower"))
        rows.append(Metric(f"{layer}.sim_self_us_per_op", "us", "lower"))
        rows.append(Metric(f"{layer}.host_self_share", "share", "lower"))
    rows += [
        Metric("ycsb.gen.host_share_of_setup", "share", "lower"),
        Metric("device.fsyncs_per_op", "count", "lower"),
        Metric("device.syscalls_per_op", "count", "lower"),
        Metric("device.bytes_per_op", "bytes", "lower"),
        Metric("gdpr.audit.records_per_op", "count", "lower"),
        Metric("gdpr.audit.blocks_sealed", "count", "lower"),
        Metric("gdpr.indexing.coalesce_ratio", "ratio", "lower"),
        Metric("gdpr.rights.sim_erase_p50_ms", "ms", "lower"),
        Metric("gdpr.rights.sim_access_p50_ms", "ms", "lower"),
        Metric("crypto.keystore.cipher_cache_hit_ratio", "ratio", "higher"),
        Metric("sqlstore.planner.hit_ratio", "ratio", "higher"),
        Metric("tiering.segment.bloom_false_positives_per_lookup", "count",
               "lower"),
        Metric("tiering.segment.resident_bytes_per_user_byte", "x",
               "lower"),
        Metric("tiering.engine.promotions_per_op", "count", "lower"),
        Metric("tiering.engine.demotions", "count", "lower"),
        Metric("common.clock.events_per_op", "count", "lower"),
        Metric("cluster.workers.queue_p99_us", "us", "lower"),
        Metric("cluster.workers.service_p99_us", "us", "lower"),
        Metric("cluster.workers.mean_batch", "count", "higher"),
        Metric("cluster.client.redirects", "count", "lower"),
        Metric("ycsb.openloop.sim_knee_ops_per_s", "1/s", "higher"),
        Metric("ycsb.openloop.max_backlog_step1", "count", "lower"),
        Metric("ycsb.openloop.max_backlog_step2", "count", "lower"),
        Metric("ycsb.openloop.max_backlog_step3", "count", "lower"),
        Metric("ycsb.openloop.max_backlog_step4", "count", "lower"),
        Metric("ycsb.openloop.max_backlog_step5", "count", "lower"),
        Metric("host.py_calls_per_op", "count", "lower"),
        Metric("host.raw_wall_ops_per_s", "1/s", "higher"),
        Metric("host.raw_setup_s", "s", "lower"),
        Metric("host.calib_slowdown_median", "x", "lower"),
        Metric("host.calib_spread", "share", "lower"),
        Metric("trace.overhead_x", "x", "lower"),
        Metric("trace.sim_unattributed_us_per_op", "us", "lower"),
    ]
    return rows


PER_LAYER: Tuple[Metric, ...] = tuple(_per_layer())

BY_NAME: Dict[str, Metric] = {
    metric.name: metric
    for metric in END_TO_END + EXTRA_END_TO_END + PER_LAYER}


def applies(metric: Metric, workload: str) -> bool:
    return metric.workloads is None or workload in metric.workloads
