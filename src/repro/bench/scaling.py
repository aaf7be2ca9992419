"""Scaling scenario: throughput vs shard count x pipeline depth, GDPR on/off.

The paper's closing argument is that GDPR-compliant storage must be
*engineered to scale*; this scenario quantifies the two levers the cluster
layer adds:

* **Pipelining** amortizes the per-round-trip channel latency over many
  requests (depth-8 pays the wire once where depth-1 pays it eight times);
* **Sharding** splits the per-command CPU and -- far more importantly for
  the GDPR configuration -- the AOF logging cost across shards that run
  concurrently, which is how a cluster claws back the paper's ~5x
  compliance slowdown.

``GDPR on`` shards run the paper's compliant configuration (AOF enabled
with read logging at everysec, the calibrated record costs from
:mod:`repro.bench.calibration`); ``off`` shards run unmodified.  The
companion :func:`erasure_fanout` measures how cross-shard Art. 17 erasure
(fan-out DELs + one shared-keystore crypto-erasure + per-shard AOF
compaction) scales with shard count.

:func:`run_resharding` adds the operational cost the related work says
dominates real deployments: the throughput a live workload keeps *while*
slots migrate between shards (DUMP/RESTORE transfers charged to the
inter-shard link, clients absorbing MOVED/ASK redirects), versus steady
state before and after the topology change.

:func:`run_replication` closes the loop on the paper's "including all
its replicas and backups" requirement: every shard carries delayed
replicas, foreground throughput is measured against the primaries, and
each erased key's cluster-wide **erasure horizon** (seconds until no
primary and no replica serves it) is reported as percentiles, with a
stale-read sample quantifying what reading from replicas would risk.

:func:`run_concurrency` is the event core's scenario: an **open-loop**
YCSB-B stream admitted at a configured arrival rate across M concurrent
simulated clients against event-loop shards.  Unlike the closed-loop
sweep above, offered load is independent of completions, so the numbers
show what closed loops structurally cannot: throughput climbing with
client count until the shard's service-time ceiling, and p99 *queueing*
delay (admission-to-dispatch wait, reported separately from service
time) exploding once the offered rate crosses that ceiling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..cluster import (
    Autoscaler,
    AutoscaleConfig,
    ClusterClient,
    ShardedGDPRStore,
    SlotMap,
    SlotMigrator,
    build_cluster,
    slot_for_key,
)
from ..common.clock import Clock
from ..device.append_log import AppendLog
from ..device.latency import INTEL_750_SSD
from ..gdpr.metadata import GDPRMetadata
from ..kvstore.store import KeyValueStore, StoreConfig
from ..ycsb.distributions import ScrambledZipfianGenerator
from ..ycsb.generator import build_key_name
from ..ycsb.openloop import OpenLoopRunner
from ..ycsb.workloads import WORKLOAD_B
from .calibration import (
    AOF_RECORD_BASE_COST,
    AOF_RECORD_PER_BYTE,
    BASE_COMMAND_CPU,
    RAW_ONE_WAY_LATENCY,
)
from .reporting import render_table

VALUE_SIZE = 100
READ_FRACTION = 0.95   # YCSB-B's read-mostly mix


@dataclass
class ScalingCell:
    """One (shards, depth, gdpr) point of the sweep."""

    shards: int
    depth: int
    gdpr: bool
    throughput: float       # ops per simulated second (run phase)
    load_throughput: float  # inserts per simulated second (load phase)


def _store_factory(gdpr: bool):
    def make(index: int, clock: Clock) -> KeyValueStore:
        if not gdpr:
            return KeyValueStore(
                StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, seed=index),
                clock=clock)
        return KeyValueStore(
            StoreConfig(command_cpu_cost=BASE_COMMAND_CPU,
                        appendonly=True, appendfsync="everysec",
                        aof_log_reads=True,
                        aof_record_base_cost=AOF_RECORD_BASE_COST,
                        aof_record_per_byte_cost=AOF_RECORD_PER_BYTE,
                        seed=index),
            clock=clock, aof_log=AppendLog(clock=clock,
                                           latency=INTEL_750_SSD))
    return make


def _request_mix(keys: Sequence[str], value: bytes, count: int,
                 seed: int) -> List[tuple]:
    """YCSB-B-shaped request stream over ``keys`` (zipfian, 95% reads)."""
    rng = random.Random(seed)
    chooser = ScrambledZipfianGenerator(0, len(keys) - 1,
                                        rng=random.Random(seed + 1))
    requests = []
    for _ in range(count):
        key = keys[min(chooser.next_value(), len(keys) - 1)]
        if rng.random() < READ_FRACTION:
            requests.append(("GET", key))
        else:
            requests.append(("SET", key, value))
    return requests


def _pipelined_phase(cluster: ClusterClient, requests: Sequence[tuple],
                     depth: int) -> float:
    """Issue ``requests`` in depth-sized pipelined batches; ops/s."""
    start = cluster.clock.now()
    for offset in range(0, len(requests), depth):
        pipeline = cluster.pipeline()
        for args in requests[offset:offset + depth]:
            pipeline.call(*args)
        pipeline.execute()
    elapsed = cluster.clock.now() - start
    return len(requests) / elapsed if elapsed > 0 else 0.0


def run_cell(shards: int, depth: int, gdpr: bool,
             record_count: int = 300, operation_count: int = 800,
             seed: int = 42) -> ScalingCell:
    """Load then run one configuration point.

    The client models a pipelined closed-loop driver (redis-benchmark
    ``-P``): it keeps ``depth`` requests in flight per round trip.
    """
    cluster = build_cluster(shards, store_factory=_store_factory(gdpr),
                            latency=RAW_ONE_WAY_LATENCY)
    rng = random.Random(seed)
    value = bytes(rng.randrange(32, 127) for _ in range(VALUE_SIZE))
    keys = [build_key_name(number) for number in range(record_count)]
    load_tput = _pipelined_phase(
        cluster, [("SET", key, value) for key in keys], depth)
    run_tput = _pipelined_phase(
        cluster, _request_mix(keys, value, operation_count, seed), depth)
    return ScalingCell(shards=shards, depth=depth, gdpr=gdpr,
                       throughput=run_tput, load_throughput=load_tput)


def run_scaling(shard_counts: Sequence[int] = (1, 2, 4),
                depths: Sequence[int] = (1, 8),
                record_count: int = 300, operation_count: int = 800,
                seed: int = 42) -> List[ScalingCell]:
    """The full sweep: shard counts x pipeline depths x GDPR on/off."""
    return [run_cell(shards, depth, gdpr, record_count, operation_count,
                     seed=seed)
            for gdpr in (False, True)
            for shards in shard_counts
            for depth in depths]


def scaling_table(cells: Sequence[ScalingCell]) -> str:
    """Render the sweep; speedup is vs the 1-shard depth-1 cell of the
    same GDPR setting (the single-node, unpipelined baseline)."""
    baselines: Dict[bool, float] = {}
    for cell in cells:
        if cell.shards == 1 and cell.depth == 1:
            baselines[cell.gdpr] = cell.throughput
    rows = []
    for cell in cells:
        base = baselines.get(cell.gdpr, 0.0)
        rows.append([
            cell.shards, cell.depth, "on" if cell.gdpr else "off",
            round(cell.throughput, 1),
            f"{cell.throughput / base:.2f}x" if base > 0 else "-",
        ])
    return render_table(["shards", "depth", "gdpr", "ops/s", "speedup"],
                        rows)


@dataclass
class ReshardingResult:
    """Throughput around a live resharding, one GDPR setting."""

    gdpr: bool
    steady_before: float    # ops/s, no migration in flight
    during: float           # ops/s while slots migrate under the load
    steady_after: float     # ops/s after the last ownership flip
    slots_moved: int
    keys_moved: int
    bytes_moved: int
    moved_redirects: int
    ask_redirects: int

    @property
    def drag(self) -> float:
        """Fraction of steady-state throughput kept during migration."""
        if self.steady_before <= 0:
            return 0.0
        return self.during / self.steady_before


def run_resharding(shards: int = 2, depth: int = 8, gdpr: bool = False,
                   record_count: int = 300, operation_count: int = 900,
                   migrate_fraction: float = 1.0,
                   migrate_batch: int = 4,
                   seed: int = 42) -> ReshardingResult:
    """Measure the paper's missing number: throughput *during* a live
    resharding versus steady state.

    The classic scale-out event: a cluster of ``shards`` serving a
    pipelined workload grows by one empty shard, and a share of every
    existing shard's populated slots (``migrate_fraction`` of an even
    rebalance) migrates into it **while the workload keeps running** --
    ``SlotMigrator`` steps interleaved with pipelined batches, the client
    discovering each ownership flip through MOVED/ASK redirects.  Reports
    steady-state throughput before, during, and after.
    """
    slot_map = SlotMap.even(shards)
    cluster = build_cluster(shards + 1, slot_map=slot_map,
                            store_factory=_store_factory(gdpr),
                            latency=RAW_ONE_WAY_LATENCY)
    rng = random.Random(seed)
    value = bytes(rng.randrange(32, 127) for _ in range(VALUE_SIZE))
    keys = [build_key_name(number) for number in range(record_count)]
    _pipelined_phase(cluster, [("SET", key, value) for key in keys],
                     depth)
    third = max(depth, operation_count // 3)
    steady_before = _pipelined_phase(
        cluster, _request_mix(keys, value, third, seed + 2), depth)

    # An even rebalance hands the new shard 1/(shards+1) of each existing
    # shard's populated slots; migrate_fraction scales that share.
    target = cluster.slots.add_shard()
    to_move: List[int] = []
    for shard in range(shards):
        populated = sorted({slot_for_key(key) for key in keys
                            if cluster.slots.shard_of_slot(
                                slot_for_key(key)) == shard})
        share = int(len(populated) * migrate_fraction / (shards + 1))
        to_move.extend(populated[:max(1, share)])
    moved_before = cluster.moved_redirects
    asked_before = cluster.ask_redirects
    requests = _request_mix(keys, value, third, seed + 3)
    offset = 0
    keys_moved = bytes_moved = 0
    start = cluster.clock.now()
    for slot in to_move:
        migrator = SlotMigrator(cluster, slot, target)
        while migrator.keys_pending:
            migrator.step(migrate_batch)
            batch = requests[offset:offset + depth]
            offset += depth
            if batch:
                pipeline = cluster.pipeline()
                for args in batch:
                    pipeline.call(*args)
                pipeline.execute()
        receipt = migrator.finish()
        keys_moved += len(receipt.keys_moved)
        bytes_moved += receipt.bytes_moved
    while offset < len(requests):
        pipeline = cluster.pipeline()
        for args in requests[offset:offset + depth]:
            pipeline.call(*args)
        offset += depth
        pipeline.execute()
    # The last flips charged the source/target clocks; bill that tail to
    # the migration phase, not to the steady-state run that follows.
    cluster.sync()
    elapsed = cluster.clock.now() - start
    during = len(requests) / elapsed if elapsed > 0 else 0.0

    steady_after = _pipelined_phase(
        cluster, _request_mix(keys, value, third, seed + 4), depth)
    return ReshardingResult(
        gdpr=gdpr, steady_before=steady_before, during=during,
        steady_after=steady_after, slots_moved=len(to_move),
        keys_moved=keys_moved, bytes_moved=bytes_moved,
        moved_redirects=cluster.moved_redirects - moved_before,
        ask_redirects=cluster.ask_redirects - asked_before)


def run_resharding_sweep(record_count: int = 300,
                         operation_count: int = 900,
                         seed: int = 42) -> List[ReshardingResult]:
    """The resharding scenario for both GDPR settings."""
    return [run_resharding(gdpr=gdpr, record_count=record_count,
                           operation_count=operation_count, seed=seed)
            for gdpr in (False, True)]


def resharding_table(results: Sequence[ReshardingResult]) -> str:
    rows = []
    for result in results:
        rows.append([
            "on" if result.gdpr else "off",
            round(result.steady_before, 1),
            round(result.during, 1),
            round(result.steady_after, 1),
            f"{result.drag:.2f}x",
            result.slots_moved,
            result.keys_moved,
            result.bytes_moved,
            result.moved_redirects,
            result.ask_redirects,
        ])
    return render_table(
        ["gdpr", "steady ops/s", "during ops/s", "after ops/s", "drag",
         "slots", "keys", "bytes", "moved", "ask"],
        rows)


@dataclass
class ConcurrencyCell:
    """One (shards, clients, arrival rate, gdpr) point of the open-loop
    sweep."""

    shards: int
    clients: int
    arrival_rate: float
    gdpr: bool
    throughput: float        # completions per simulated second
    p50_queue: float         # seconds an op waited for a free client
    p99_queue: float
    p99_service: float       # dispatch-to-reply, server queue included
    admitted: int
    completed: int
    max_backlog: int


def run_concurrency_cell(shards: int, clients: int, arrival_rate: float,
                         gdpr: bool, record_count: int = 100,
                         operation_count: int = 400,
                         seed: int = 42) -> ConcurrencyCell:
    """One open-loop point: a cluster of ``shards`` single-core shards,
    ``clients`` concurrent simulated clients, and a YCSB-B stream
    admitted at ``arrival_rate`` ops/s."""
    cluster = build_cluster(shards, store_factory=_store_factory(gdpr),
                            latency=RAW_ONE_WAY_LATENCY)
    spec = WORKLOAD_B.scaled(record_count=record_count,
                             operation_count=operation_count)
    runner = OpenLoopRunner(cluster, spec, clients=clients,
                            arrival_rate=arrival_rate, seed=seed)
    runner.preload()
    report = runner.run(operation_count)
    return ConcurrencyCell(
        shards=shards, clients=clients, arrival_rate=arrival_rate,
        gdpr=gdpr, throughput=report.throughput,
        p50_queue=report.queue_delay.percentile(50),
        p99_queue=report.queue_delay.percentile(99),
        p99_service=report.service_time.percentile(99),
        admitted=report.admitted, completed=report.completed,
        max_backlog=report.max_backlog)


def run_concurrency(shard_counts: Sequence[int] = (1, 2),
                    client_counts: Sequence[int] = (1, 4, 16),
                    arrival_rates: Sequence[float] = (20_000.0, 60_000.0),
                    record_count: int = 100,
                    operation_count: int = 400,
                    seed: int = 42) -> List[ConcurrencyCell]:
    """The full sweep: shards x clients x arrival rate x GDPR on/off.

    On one shard, throughput rises with client count until the shard's
    service-time ceiling (more clients only lengthen the queue after
    that); an arrival rate past the ceiling shows p99 queueing delay
    growing with the backlog -- the saturation behaviour the paper's
    scaling argument is about, now measurable because admission is
    decoupled from completion.
    """
    return [run_concurrency_cell(shards, clients, rate, gdpr,
                                 record_count=record_count,
                                 operation_count=operation_count,
                                 seed=seed)
            for gdpr in (False, True)
            for shards in shard_counts
            for clients in client_counts
            for rate in arrival_rates]


def concurrency_table(cells: Sequence[ConcurrencyCell]) -> str:
    rows = []
    for cell in cells:
        rows.append([
            cell.shards, cell.clients, int(cell.arrival_rate),
            "on" if cell.gdpr else "off",
            round(cell.throughput, 1),
            round(cell.p50_queue * 1e6, 1),
            round(cell.p99_queue * 1e6, 1),
            round(cell.p99_service * 1e6, 1),
            cell.max_backlog,
        ])
    return render_table(
        ["shards", "clients", "offered/s", "gdpr", "ops/s",
         "p50 queue us", "p99 queue us", "p99 svc us", "backlog"],
        rows)


DEFAULT_HOCKEY_RATES = (5_000.0, 10_000.0, 20_000.0, 30_000.0, 36_000.0,
                        40_000.0, 48_000.0, 60_000.0)


def latency_vs_load(rates: Sequence[float] = DEFAULT_HOCKEY_RATES,
                    shards: int = 1, clients: int = 8,
                    gdpr: bool = False, record_count: int = 100,
                    operation_count: int = 400,
                    cores: int = 1,
                    adaptive_batch: bool = False,
                    dispatch_overhead: float = 0.0,
                    request_distribution: Optional[str] = None,
                    placement: bool = False,
                    seed: int = 42) -> List[Dict[str, float]]:
    """The classic open-loop "hockey stick": end-to-end latency vs
    offered load.

    Each point admits the same YCSB-B stream at a different arrival
    rate against a fresh cluster.  Below the service-time ceiling
    (~1 / per-command cost per shard) latency is flat -- wire plus
    service; past it the backlog grows for as long as admission
    continues and p99 latency bends sharply upward.  Offered load is
    independent of completions, so the curve shows the knee a
    closed-loop driver structurally cannot produce.

    ``cores`` is the multi-core axis: each shard dispatches to that
    many simulated cores, ``adaptive_batch`` turns the per-worker
    batching controller on, and ``dispatch_overhead`` charges a fixed
    cost per dispatch so batching has something to amortize.

    ``request_distribution`` overrides the workload's key popularity
    ("zipfian" / "uniform" / "latest"; ``None`` keeps YCSB-B's default
    zipfian), and ``placement=True`` turns on the pools' skew-aware
    slot placement -- the default ``False`` keeps the static
    ``slot % K`` partition and its results byte-for-byte.
    """
    rows = []
    for rate in rates:
        cluster = build_cluster(shards, store_factory=_store_factory(gdpr),
                                latency=RAW_ONE_WAY_LATENCY, workers=cores,
                                adaptive_batch=adaptive_batch,
                                dispatch_overhead=dispatch_overhead,
                                placement=True if placement else None)
        spec = WORKLOAD_B.scaled(record_count=record_count,
                                 operation_count=operation_count)
        if request_distribution is not None:
            spec = replace(spec,
                           request_distribution=request_distribution)
        runner = OpenLoopRunner(cluster, spec, clients=clients,
                                arrival_rate=rate, seed=seed)
        runner.preload()
        report = runner.run(operation_count)
        pools = [node.pool for node in cluster.nodes]
        rows.append({
            "offered": rate,
            "completed_per_s": report.throughput,
            "p50_latency": report.latency.percentile(50),
            "p99_latency": report.latency.percentile(99),
            "max_backlog": float(report.max_backlog),
            "worker_q99": tuple(
                worker["p99_queue_delay"]
                for pool in pools for worker in pool.worker_rows()),
            "rebalances": sum(len(pool.rebalances) for pool in pools),
            "splits": sum(len(event.split_slots)
                          for pool in pools for event in pool.rebalances),
        })
    return rows


def hockey_stick_table(rows: Sequence[Dict[str, float]]) -> str:
    """Render the latency-vs-offered-load curve (the bench_results
    artifact)."""
    return render_table(
        ["offered/s", "ops/s", "p50 latency us", "p99 latency us",
         "backlog"],
        [[int(row["offered"]), round(row["completed_per_s"], 1),
          round(row["p50_latency"] * 1e6, 1),
          round(row["p99_latency"] * 1e6, 1),
          int(row["max_backlog"])] for row in rows])


DEFAULT_WORKER_RATES = (20_000.0, 40_000.0, 60_000.0, 80_000.0,
                        120_000.0, 160_000.0)
KNEE_P99_CEILING = 1e-3     # "saturated" = p99 latency past 1 ms


@dataclass
class WorkerSweep:
    """The hockey stick for one worker count."""

    cores: int
    adaptive_batch: bool
    rows: List[Dict[str, float]]

    @property
    def knee(self) -> float:
        """Highest offered rate the shard absorbed with p99 latency
        still under :data:`KNEE_P99_CEILING` (0.0 if none did)."""
        good = [row["offered"] for row in self.rows
                if row["p99_latency"] <= KNEE_P99_CEILING]
        return max(good) if good else 0.0


def run_workers(core_counts: Sequence[int] = (1, 2, 4),
                rates: Sequence[float] = DEFAULT_WORKER_RATES,
                clients: int = 32, adaptive_batch: bool = True,
                dispatch_overhead: float = 0.0,
                record_count: int = 100, operation_count: int = 400,
                seed: int = 42) -> List[WorkerSweep]:
    """Workers-vs-ceiling: rerun the hockey stick per worker count.

    Same YCSB-B stream, same arrival rates, one curve per ``cores``
    value; the artifact to read is where each curve's knee sits.  One
    simulated core saturates at ~1/``BASE_COMMAND_CPU`` = 40k ops/s;
    every added core raises the ceiling by the share of slots it owns
    (zipfian-skewed, so the hottest core saturates first -- the knee
    scales sublinearly, exactly like a real partitioned shard).
    """
    return [WorkerSweep(cores=cores, adaptive_batch=adaptive_batch,
                        rows=latency_vs_load(
                            rates=rates, clients=clients,
                            record_count=record_count,
                            operation_count=operation_count,
                            cores=cores, adaptive_batch=adaptive_batch,
                            dispatch_overhead=dispatch_overhead,
                            seed=seed))
            for cores in core_counts]


def _per_core_q99(row: Dict[str, float]) -> str:
    """Render a sweep row's per-worker queue-delay p99s (us) as a
    compact ``a/b/...`` cell -- the column that makes skew imbalance
    visible per core instead of hiding inside the pool-wide EWMA."""
    return "/".join(f"{delay * 1e6:.1f}" for delay in row["worker_q99"])


def workers_table(sweeps: Sequence[WorkerSweep]) -> str:
    """Render all per-core hockey sticks into one table."""
    rows = []
    for sweep in sweeps:
        for row in sweep.rows:
            rows.append([
                sweep.cores, "on" if sweep.adaptive_batch else "off",
                int(row["offered"]), round(row["completed_per_s"], 1),
                round(row["p50_latency"] * 1e6, 1),
                round(row["p99_latency"] * 1e6, 1),
                int(row["max_backlog"]),
                _per_core_q99(row),
            ])
    return render_table(
        ["cores", "batch", "offered/s", "ops/s", "p50 latency us",
         "p99 latency us", "backlog", "q99 queue us/core"], rows)


def workers_ceiling_summary(sweeps: Sequence[WorkerSweep]) -> str:
    """The headline numbers: each worker count's knee, vs single-loop."""
    base = next((sweep.knee for sweep in sweeps if sweep.cores == 1),
                0.0)
    lines = [f"saturation knee (highest offered rate with p99 <= "
             f"{KNEE_P99_CEILING * 1e3:.1f} ms):"]
    for sweep in sweeps:
        scale = (f"{sweep.knee / base:.1f}x single-loop"
                 if base > 0 else "-")
        lines.append(f"  cores={sweep.cores}: "
                     f"{int(sweep.knee):>7} ops/s  ({scale})")
    return "\n".join(lines)


SKEW_RECORD_COUNT = 44   # few enough keys that theta-0.99 zipfian
#                          piles >50% of requests onto one 4-core
#                          partition -- the skew the placement layer
#                          exists to fix


@dataclass
class SkewSweep:
    """One (cores, distribution, placement) hockey stick of the skew
    sweep."""

    cores: int
    distribution: str        # "zipfian" | "uniform"
    placement: bool
    rows: List[Dict[str, float]]

    @property
    def knee(self) -> float:
        """Same saturation knee as :class:`WorkerSweep`."""
        good = [row["offered"] for row in self.rows
                if row["p99_latency"] <= KNEE_P99_CEILING]
        return max(good) if good else 0.0

    @property
    def rebalances(self) -> int:
        """Rebalance events fired across every rate of the sweep."""
        return sum(int(row["rebalances"]) for row in self.rows)

    @property
    def splits(self) -> int:
        """Hot slots read-split across every rate of the sweep."""
        return sum(int(row["splits"]) for row in self.rows)


def run_workers_skew(core_counts: Sequence[int] = (1, 2, 4),
                     rates: Sequence[float] = DEFAULT_WORKER_RATES,
                     clients: int = 32, adaptive_batch: bool = True,
                     record_count: int = SKEW_RECORD_COUNT,
                     operation_count: int = 400,
                     seed: int = 42) -> List[SkewSweep]:
    """The skew axis: zipfian vs uniform knees, static vs placed.

    Three curves per worker count over the same arrival rates:

    * **zipfian / static** -- theta-0.99 key popularity over the fixed
      ``slot % K`` partition.  One hot slot pins one core while its
      siblings idle, so the knee barely moves past the single-core
      ceiling;
    * **zipfian / placed** -- same stream with skew-aware placement on:
      the pool's :class:`~repro.cluster.workers.Rebalancer` re-homes
      hot slots (greedy LPT) and read-splits the hottest one, pushing
      the knee back toward the uniform curve;
    * **uniform / static** -- the no-skew control the placed zipfian
      curve should approach.
    """
    sweeps = []
    for cores in core_counts:
        for distribution, placement in (("zipfian", False),
                                        ("zipfian", True),
                                        ("uniform", False)):
            sweeps.append(SkewSweep(
                cores=cores, distribution=distribution,
                placement=placement,
                rows=latency_vs_load(
                    rates=rates, clients=clients,
                    record_count=record_count,
                    operation_count=operation_count,
                    cores=cores, adaptive_batch=adaptive_batch,
                    request_distribution=distribution,
                    placement=placement, seed=seed)))
    return sweeps


def workers_skew_table(sweeps: Sequence[SkewSweep]) -> str:
    """Render the skew sweep: every curve, with per-core q99 and the
    rebalance/split activity that produced it."""
    rows = []
    for sweep in sweeps:
        for row in sweep.rows:
            rows.append([
                sweep.cores, sweep.distribution,
                "on" if sweep.placement else "off",
                int(row["offered"]), round(row["completed_per_s"], 1),
                round(row["p99_latency"] * 1e6, 1),
                int(row["max_backlog"]),
                _per_core_q99(row),
                int(row["rebalances"]),
                int(row["splits"]),
            ])
    return render_table(
        ["cores", "dist", "place", "offered/s", "ops/s",
         "p99 latency us", "backlog", "q99 queue us/core", "rebal",
         "split"], rows)


def workers_skew_summary(sweeps: Sequence[SkewSweep]) -> str:
    """Headline: per-core-count knees by axis, the placed/static
    zipfian ratio, and total rebalancer activity."""
    lines = [f"saturation knee (highest offered rate with p99 <= "
             f"{KNEE_P99_CEILING * 1e3:.1f} ms):"]
    core_counts = sorted({sweep.cores for sweep in sweeps})
    by_axis = {(sweep.cores, sweep.distribution, sweep.placement): sweep
               for sweep in sweeps}
    for cores in core_counts:
        static = by_axis.get((cores, "zipfian", False))
        placed = by_axis.get((cores, "zipfian", True))
        uniform = by_axis.get((cores, "uniform", False))
        parts = []
        if static is not None:
            parts.append(f"zipf static {int(static.knee):>7}")
        if placed is not None:
            parts.append(f"zipf placed {int(placed.knee):>7}")
        if uniform is not None:
            parts.append(f"uniform {int(uniform.knee):>7}")
        lines.append(f"  cores={cores}: " + "  ".join(parts))
        if (static is not None and placed is not None
                and static.knee > 0):
            lines.append(f"    placed/static zipfian ratio: "
                         f"{placed.knee / static.knee:.2f}x")
    fired = sum(sweep.rebalances for sweep in sweeps)
    split = sum(sweep.splits for sweep in sweeps)
    lines.append(f"rebalances fired: {fired} (slots read-split: "
                 f"{split})")
    return "\n".join(lines)


@dataclass
class AutoscalePhase:
    """One constant-rate phase of the autoscale demo."""

    phase: int
    offered: float
    completed_per_s: float
    p99_latency: float       # end-to-end, seconds
    queue_ewma: float        # hottest pool's queueing-delay EWMA at end
    total_workers: int       # across all serving shards
    shards_serving: int      # shards owning populated slots
    actions: str             # autoscale actions taken during the phase


def run_autoscale_demo(rates: Sequence[float] = (30_000.0, 90_000.0,
                                                 90_000.0, 90_000.0,
                                                 90_000.0, 90_000.0),
                       ops_per_phase: int = 400, clients: int = 32,
                       max_workers: int = 2, record_count: int = 100,
                       seed: int = 42) -> List[AutoscalePhase]:
    """Close the loop: the autoscaler reacts to the hockey stick live.

    One serving shard (1 worker) plus one pre-built spare; an open-loop
    YCSB-B stream ramps from comfortable to ~2.2x the single-core
    ceiling and *stays there*.  The :class:`Autoscaler` daemon watches
    the pools' queueing-delay EWMAs and climbs its ladder while the
    runner keeps offering load: first a live ``add_worker()`` on the
    hot shard, then -- still hot at ``max_workers`` -- one scale-out
    that flips half the populated slots to the spare shard through
    event-driven :class:`SlotMigrator` streams interleaved with the
    workload.  The per-phase rows show p99 blowing past the knee and
    then recovering as each rung lands.
    """
    cluster = build_cluster(2, slot_map=SlotMap.even(1),
                            store_factory=_store_factory(False),
                            latency=RAW_ONE_WAY_LATENCY)
    keys = [build_key_name(number) for number in range(record_count)]

    def spill(_scaler: Autoscaler, _target: int) -> str:
        new_shard = cluster.slots.add_shard()
        populated = sorted({slot_for_key(key) for key in keys
                            if cluster.slots.shard_of_slot(
                                slot_for_key(key)) == 0})
        moving = populated[::2]      # every other slot: an even split
        for slot in moving:
            SlotMigrator(cluster, slot, new_shard).run_as_events(
                cluster.clock, batch_size=8, interval=2e-4)
        return f"spill {len(moving)} slots -> shard {new_shard}"

    pools = [node.pool for node in cluster.nodes]
    scaler = Autoscaler(
        cluster.clock, pools,
        AutoscaleConfig(interval=1e-3, high_delay=300e-6,
                        max_workers=max_workers, cooldown=3e-3,
                        max_scale_outs=1),
        scale_out=spill)
    spec = WORKLOAD_B.scaled(record_count=record_count,
                             operation_count=ops_per_phase * len(rates))
    runner = OpenLoopRunner(cluster, spec, clients=clients,
                            arrival_rate=rates[0], seed=seed)
    runner.preload()
    scaler.start()
    phases = []
    for number, rate in enumerate(rates, start=1):
        runner.set_arrival_rate(rate)
        events_before = len(scaler.events)
        report = runner.run(ops_per_phase)
        taken = [event.action for event in scaler.events[events_before:]]
        serving = {cluster.slots.shard_of_slot(slot_for_key(key))
                   for key in keys}
        phases.append(AutoscalePhase(
            phase=number, offered=rate,
            completed_per_s=report.throughput,
            p99_latency=report.latency.percentile(99),
            queue_ewma=max(pool.queueing_delay_ewma() for pool in pools),
            total_workers=sum(pool.num_workers for pool in pools),
            shards_serving=len(serving),
            actions=",".join(taken) if taken else "-"))
    scaler.stop()
    return phases


def autoscale_table(phases: Sequence[AutoscalePhase]) -> str:
    return render_table(
        ["phase", "offered/s", "ops/s", "p99 latency us", "ewma us",
         "workers", "shards", "actions"],
        [[row.phase, int(row.offered), round(row.completed_per_s, 1),
          round(row.p99_latency * 1e6, 1),
          round(row.queue_ewma * 1e6, 1), row.total_workers,
          row.shards_serving, row.actions] for row in phases])


@dataclass
class ReplicationCell:
    """One (shards, replicas, delay, gdpr) point of the replication
    sweep."""

    shards: int
    replicas: int
    delay: float            # one-way replication delay (seconds)
    gdpr: bool
    throughput: float       # ops/s of the primary-side YCSB-B mix
    replica_reads: int      # sampled reads served from replicas
    stale_reads: int        # ...that raced an in-flight write
    horizons: int           # erasure horizons measured
    horizon_p50: float      # seconds until a DELed key left every copy
    horizon_p99: float
    horizon_max: float


def _percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * int(pct) // 100))  # ceil
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_replication_cell(shards: int, replicas: int, delay: float,
                         gdpr: bool, record_count: int = 300,
                         operation_count: int = 800,
                         erase_count: int = 16,
                         seed: int = 42) -> ReplicationCell:
    """One replication point: a cluster of ``shards``, each carrying
    ``replicas`` replicas behind a ``delay``-second stream.

    Three measurements per cell:

    * **throughput** of a depth-8 pipelined YCSB-B mix against the
      primaries (the replication fan-out itself is the only new cost);
    * a **stale-read sample**: reads routed to replicas immediately
      after the mix, counting how many raced the in-flight backlog;
    * **erasure horizons**: ``erase_count`` keys are DELed one at a time
      and the cluster-wide horizon -- simulated seconds until the key is
      invisible on every primary *and* replica -- is measured for each,
      reported as percentiles (the paper's "including all its replicas"
      requirement, quantified).
    """
    cluster = build_cluster(shards, store_factory=_store_factory(gdpr),
                            latency=RAW_ONE_WAY_LATENCY)
    # Timer pumps on the cluster clock: replicas apply continuously as
    # time advances, so the stale-read sample reflects the
    # delay window rather than an ever-growing backlog.
    replication = cluster.attach_replication(replicas_per_shard=replicas,
                                             delay=delay,
                                             pump_interval=delay / 4)
    rng = random.Random(seed)
    value = bytes(rng.randrange(32, 127) for _ in range(VALUE_SIZE))
    keys = [build_key_name(number) for number in range(record_count)]
    _pipelined_phase(cluster, [("SET", key, value) for key in keys], 8)
    throughput = _pipelined_phase(
        cluster, _request_mix(keys, value, operation_count, seed), 8)

    # Stale-read sample: replicas still hold in-flight backlog from the
    # mix, so some of these reads observe pre-write state.
    sample = keys[::max(1, len(keys) // 32)]
    reads_before = cluster.replica_reads
    stale_before = cluster.stale_replica_reads
    for key in sample:
        cluster.call("GET", key, prefer_replica=True)

    # Let replication converge, then measure per-key erasure horizons.
    cluster.sync()
    cluster.clock.advance(2 * delay)
    for node in cluster.nodes:
        node.clock.sleep_until(cluster.clock.now())
    replication.pump()
    step = max(delay / 8, 1e-4)
    horizons = []
    for key in keys[::max(1, len(keys) // erase_count)][:erase_count]:
        cluster.call("DEL", key)
        horizon = replication.erasure_horizon(
            key.encode("utf-8"), step=step, max_wait=10.0 + 4 * delay)
        if horizon is not None:
            horizons.append(horizon)
    horizons.sort()
    return ReplicationCell(
        shards=shards, replicas=replicas, delay=delay, gdpr=gdpr,
        throughput=throughput,
        replica_reads=cluster.replica_reads - reads_before,
        stale_reads=cluster.stale_replica_reads - stale_before,
        horizons=len(horizons),
        horizon_p50=_percentile(horizons, 50),
        horizon_p99=_percentile(horizons, 99),
        horizon_max=horizons[-1] if horizons else 0.0)


def run_replication(shard_counts: Sequence[int] = (1, 2),
                    replica_counts: Sequence[int] = (1, 2),
                    delays: Sequence[float] = (0.001, 0.010),
                    record_count: int = 300, operation_count: int = 800,
                    seed: int = 42) -> List[ReplicationCell]:
    """The full sweep: shards x replicas x replication delay x GDPR
    on/off.  Throughput shows what the fan-out costs the primaries;
    the horizon percentiles show what the *delay* costs compliance --
    erasure is only complete when the slowest replica catches up.
    """
    return [run_replication_cell(shards, replicas, delay, gdpr,
                                 record_count=record_count,
                                 operation_count=operation_count,
                                 seed=seed)
            for gdpr in (False, True)
            for shards in shard_counts
            for replicas in replica_counts
            for delay in delays]


def replication_table(cells: Sequence[ReplicationCell]) -> str:
    rows = []
    for cell in cells:
        stale = (cell.stale_reads / cell.replica_reads
                 if cell.replica_reads else 0.0)
        rows.append([
            cell.shards, cell.replicas,
            round(cell.delay * 1e3, 3),
            "on" if cell.gdpr else "off",
            round(cell.throughput, 1),
            f"{stale:.2f}",
            round(cell.horizon_p50 * 1e3, 3),
            round(cell.horizon_p99 * 1e3, 3),
            round(cell.horizon_max * 1e3, 3),
        ])
    return render_table(
        ["shards", "replicas", "delay ms", "gdpr", "ops/s",
         "stale frac", "hz p50 ms", "hz p99 ms", "hz max ms"],
        rows)


def replicated_erasure_fanout(shard_counts: Sequence[int] = (1, 2, 4),
                              replicas: int = 2, delay: float = 0.020,
                              subject_keys: int = 40,
                              seed: int = 7) -> List[Dict[str, float]]:
    """Art. 17 through replicas: erase one subject across every shard of
    a replicated :class:`ShardedGDPRStore` and report how long until the
    last replica stopped serving the last key.

    Replica pumps run as daemon timer events on the store's scheduler
    (``pump_interval = delay / 4``), so the horizon is measured the same
    way an event-driven deployment would observe it.
    """
    rows = []
    for shards in shard_counts:
        store = ShardedGDPRStore(num_shards=shards,
                                 kv_factory=_store_factory(gdpr=True))
        store.attach_replication(replicas_per_shard=replicas,
                                 delay=delay, pump_interval=delay / 4)
        rng = random.Random(seed)
        for number in range(subject_keys):
            owner = "alice" if number % 2 == 0 else f"other-{number % 7}"
            store.put(f"user:{number}", bytes(rng.randrange(97, 123)
                                              for _ in range(32)),
                      GDPRMetadata(owner=owner,
                                   purposes=frozenset({"service"})))
        store.clock.advance(2 * delay)   # replicas converge on the load
        keys = store.keys_of_subject("alice")
        receipt = store.erase_subject("alice")
        horizon = store.subject_erasure_horizon(keys, step=delay / 10)
        rows.append({
            "shards": float(shards),
            "total_replicas": float(replicas * shards),
            "keys_erased": float(len(receipt.keys_erased)),
            "erase_seconds": receipt.duration,
            "horizon_seconds": horizon if horizon is not None else -1.0,
            "crypto_erased": float(receipt.crypto_erased),
        })
    return rows


def erasure_fanout(shard_counts: Sequence[int] = (1, 2, 4),
                   subject_keys: int = 60,
                   seed: int = 7) -> List[Dict[str, float]]:
    """Simulated cost of a cross-shard Art. 17 erasure per shard count.

    One data subject's records spread over every shard; the erasure fans
    out DELs and AOF compaction per shard while a single crypto-erasure
    voids all shards at once.
    """
    rows = []
    for shards in shard_counts:
        # Shards run the same compliant configuration the throughput
        # sweep's GDPR-on rows use.
        store = ShardedGDPRStore(num_shards=shards,
                                 kv_factory=_store_factory(gdpr=True))
        rng = random.Random(seed)
        for number in range(subject_keys):
            owner = "alice" if number % 2 == 0 else f"other-{number % 7}"
            store.put(f"user:{number}", bytes(rng.randrange(97, 123)
                                              for _ in range(32)),
                      GDPRMetadata(owner=owner,
                                   purposes=frozenset({"service"})))
        receipt = store.erase_subject("alice")
        rows.append({
            "shards": float(shards),
            "keys_erased": float(len(receipt.keys_erased)),
            "shards_touched": float(len(receipt.shards_touched)),
            "erase_seconds": receipt.duration,
            "residual_in_aof": float(receipt.residual_in_aof),
        })
    return rows
