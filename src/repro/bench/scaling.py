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
companion :data:`ERASURE_FANOUT` measures how cross-shard Art. 17 erasure
(one DEL per shard + one shared-keystore crypto-erasure + per-shard
AOF compaction) scales with shard count.

:data:`RESHARDING` adds the operational cost the related work says
dominates real deployments: the throughput a live workload keeps *while*
slots migrate between shards (DUMP/RESTORE transfers charged to the
inter-shard link, clients absorbing MOVED/ASK redirects), versus steady
state before and after the topology change.

:data:`REPLICATION` closes the loop on the paper's "including all
its replicas and backups" requirement: every shard carries delayed
replicas, foreground throughput is measured against the primaries, and
each erased key's cluster-wide **erasure horizon** (seconds until no
primary and no replica serves it) is reported as percentiles, with a
stale-read sample quantifying what reading from replicas would risk.

:data:`CONCURRENCY` is the event core's scenario: an **open-loop**
YCSB-B stream admitted at a configured arrival rate across M concurrent
simulated clients against event-loop shards.  Unlike the closed-loop
sweep above, offered load is independent of completions, so the numbers
show what closed loops structurally cannot: throughput climbing with
client count until the shard's service-time ceiling, and p99 *queueing*
delay (admission-to-dispatch wait, reported separately from service
time) exploding once the offered rate crosses that ceiling.

Every scenario here is one :class:`~repro.bench.reporting.Scenario`
declaration -- axes in print order, the function that measures one
point, the columns, how the CLI's ``--records`` / ``--ops`` map onto
the measurement's sizes, and its prose -- placed right after the
function that measures it.  The CLI prints a declaration, ``benchmarks/``
writes it to ``bench_results/``, and both go through the one
:func:`~repro.bench.reporting.sweep` / :func:`~repro.bench.reporting.render`.
"""

from __future__ import annotations

import random
from dataclasses import replace
from operator import itemgetter
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
from ..gdpr.metadata import GDPRMetadata
from ..kvstore.store import KeyValueStore, StoreConfig
from ..ycsb.distributions import ScrambledZipfianGenerator
from ..ycsb.generator import build_key_name
from ..ycsb.openloop import OpenLoopRunner
from ..ycsb.workloads import WORKLOAD_B
from .calibration import (
    BASE_COMMAND_CPU,
    RAW_ONE_WAY_LATENCY,
    logged_store,
)
from .reporting import Axis, Row, Scenario, on_off, scaled, ycsb_sizes

VALUE_SIZE = 100
READ_FRACTION = 0.95   # YCSB-B's read-mostly mix


# Columns several scenarios print the same way.  ``ops/s`` is operations
# completed per simulated second; ``offered/s`` the open-loop arrival
# rate; the latencies are end-to-end (admission to reply).
SHARDS = ("shards", "shards")
GDPR = ("gdpr", on_off("gdpr"))
OPS = ("ops/s", scaled("throughput"))
OFFERED = ("offered/s", lambda row, _rows: int(row["arrival_rate"]))
P50_LATENCY = ("p50 latency us", scaled("p50_latency", 1e6))
P99_LATENCY = ("p99 latency us", scaled("p99_latency", 1e6))
BACKLOG = ("backlog", "max_backlog")


def _store_factory(gdpr: bool):
    def make(index: int, clock: Clock) -> KeyValueStore:
        if not gdpr:
            return KeyValueStore(
                StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, seed=index),
                clock=clock)
        return logged_store(clock, seed=index)
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


def _pipelined(cluster: ClusterClient, batch: Sequence[tuple]) -> None:
    """Issue ``batch`` as one pipelined round trip."""
    pipeline = cluster.pipeline()
    for args in batch:
        pipeline.call(*args)
    pipeline.execute()


def _pipelined_phase(cluster: ClusterClient, requests: Sequence[tuple],
                     depth: int) -> float:
    """Issue ``requests`` in depth-sized pipelined batches; ops/s."""
    start = cluster.clock.now()
    for offset in range(0, len(requests), depth):
        _pipelined(cluster, requests[offset:offset + depth])
    elapsed = cluster.clock.now() - start
    return len(requests) / elapsed if elapsed > 0 else 0.0


def _load(cluster: ClusterClient, record_count: int, depth: int,
          seed: int):
    """Insert ``record_count`` YCSB keys, all holding one seeded value,
    in depth-sized pipelined batches; returns ``(keys, value, ops/s)``."""
    rng = random.Random(seed)
    value = bytes(rng.randrange(32, 127) for _ in range(VALUE_SIZE))
    keys = [build_key_name(number) for number in range(record_count)]
    return keys, value, _pipelined_phase(
        cluster, [("SET", key, value) for key in keys], depth)


def run_cell(shards: int, depth: int, gdpr: bool,
             record_count: int = 300, operation_count: int = 800,
             seed: int = 42) -> Row:
    """Load then run one (shards, depth, gdpr) point; throughputs are
    ops per simulated second of the run and the load phase.

    The client models a pipelined closed-loop driver (redis-benchmark
    ``-P``): it keeps ``depth`` requests in flight per round trip.
    """
    cluster = build_cluster(shards, store_factory=_store_factory(gdpr),
                            latency=RAW_ONE_WAY_LATENCY)
    keys, value, load_tput = _load(cluster, record_count, depth, seed)
    run_tput = _pipelined_phase(
        cluster, _request_mix(keys, value, operation_count, seed), depth)
    return {"throughput": run_tput, "load_throughput": load_tput}


def _speedup(row: Row, rows: Sequence[Row]) -> str:
    """Throughput vs the 1-shard depth-1 cell of the same GDPR setting
    (the single-node, unpipelined baseline)."""
    base = next((other["throughput"] for other in rows
                 if (other["shards"], other["depth"], other["gdpr"])
                 == (1, 1, row["gdpr"])), 0.0)
    return f"{row['throughput'] / base:.2f}x" if base > 0 else "-"


SCALING = Scenario(
    title="Scaling -- shards x pipeline depth, GDPR on/off",
    axes=(Axis("gdpr", (False, True)),
          Axis("shards", (1, 2, 4), full=(1, 2, 4, 8)),
          Axis("depth", (1, 8))),
    measure=run_cell,
    sizes=ycsb_sizes,
    columns=(SHARDS, ("depth", "depth"), GDPR, OPS,
             ("speedup", _speedup)),
)


def _populated_slots(cluster: ClusterClient, keys: Sequence[str],
                     shard: int) -> List[int]:
    """The slots ``shard`` owns that hold at least one of ``keys``."""
    slots = {slot_for_key(key) for key in keys}
    return sorted(slot for slot in slots
                  if cluster.slots.shard_of_slot(slot) == shard)


def run_resharding(gdpr: bool = False, record_count: int = 300,
                   operation_count: int = 900, seed: int = 42) -> Row:
    """Measure the paper's missing number: throughput *during* a live
    resharding versus steady state.

    The classic scale-out event: a two-shard cluster serving a depth-8
    pipelined workload grows by one empty shard, and an even rebalance's
    share of every existing shard's populated slots migrates into it
    **while the workload keeps running** -- ``SlotMigrator`` steps (four
    keys each) interleaved with pipelined batches, the client
    discovering each ownership flip through MOVED/ASK redirects.  Reports
    ops/s in steady state before (no migration in flight), during, and
    after the last ownership flip; ``drag`` is the fraction of
    steady-state throughput kept during migration.
    """
    shards, depth = 2, 8
    slot_map = SlotMap.even(shards)
    cluster = build_cluster(shards + 1, slot_map=slot_map,
                            store_factory=_store_factory(gdpr),
                            latency=RAW_ONE_WAY_LATENCY)
    keys, value, _ = _load(cluster, record_count, depth, seed)
    third = max(depth, operation_count // 3)
    steady_before = _pipelined_phase(
        cluster, _request_mix(keys, value, third, seed + 2), depth)

    # An even rebalance hands the new shard 1/(shards+1) of each existing
    # shard's populated slots.
    target = cluster.slots.add_shard()
    to_move: List[int] = []
    for shard in range(shards):
        populated = _populated_slots(cluster, keys, shard)
        share = len(populated) // (shards + 1)
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
            migrator.step(4)
            if offset < len(requests):
                _pipelined(cluster, requests[offset:offset + depth])
            offset += depth
        receipt = migrator.finish()
        keys_moved += len(receipt.keys_moved)
        bytes_moved += receipt.bytes_moved
    while offset < len(requests):
        _pipelined(cluster, requests[offset:offset + depth])
        offset += depth
    # The last flips charged the source/target clocks; bill that tail to
    # the migration phase, not to the steady-state run that follows.
    cluster.sync()
    elapsed = cluster.clock.now() - start
    during = len(requests) / elapsed if elapsed > 0 else 0.0

    steady_after = _pipelined_phase(
        cluster, _request_mix(keys, value, third, seed + 4), depth)
    return {
        "steady_before": steady_before, "during": during,
        "steady_after": steady_after,
        "drag": during / steady_before if steady_before > 0 else 0.0,
        "slots_moved": len(to_move), "keys_moved": keys_moved,
        "bytes_moved": bytes_moved,
        "moved_redirects": cluster.moved_redirects - moved_before,
        "ask_redirects": cluster.ask_redirects - asked_before,
    }


RESHARDING = Scenario(
    title="Resharding -- live slot migration under load",
    axes=(Axis("gdpr", (False, True)),),
    measure=run_resharding,
    sizes=ycsb_sizes,
    columns=(GDPR,
             ("steady ops/s", scaled("steady_before")),
             ("during ops/s", scaled("during")),
             ("after ops/s", scaled("steady_after")),
             ("drag", lambda row, _rows: f"{row['drag']:.2f}x"),
             ("slots", "slots_moved"), ("keys", "keys_moved"),
             ("bytes", "bytes_moved"), ("moved", "moved_redirects"),
             ("ask", "ask_redirects")),
    footnote="'drag' = fraction of steady-state throughput kept while "
             "slots migrate;\n'moved'/'ask' = redirects the client "
             "followed to track the topology.",
)


def run_concurrency_cell(shards: int, clients: int, arrival_rate: float,
                         gdpr: bool, record_count: int = 100,
                         operation_count: int = 400,
                         seed: int = 42) -> Row:
    """One open-loop point: a cluster of ``shards`` single-core shards,
    ``clients`` concurrent simulated clients, and a YCSB-B stream
    admitted at ``arrival_rate`` ops/s.

    ``throughput`` is completions per simulated second; the ``*_queue``
    percentiles are seconds an op waited for a free client, and
    ``p99_service`` is dispatch-to-reply, server queue included.
    """
    cluster = build_cluster(shards, store_factory=_store_factory(gdpr),
                            latency=RAW_ONE_WAY_LATENCY)
    spec = WORKLOAD_B.scaled(record_count=record_count,
                             operation_count=operation_count)
    runner = OpenLoopRunner(cluster, spec, clients=clients,
                            arrival_rate=arrival_rate, seed=seed)
    runner.preload()
    report = runner.run(operation_count)
    return {
        "throughput": report.throughput,
        "p50_queue": report.queue_delay.percentile(50),
        "p99_queue": report.queue_delay.percentile(99),
        "p99_service": report.service_time.percentile(99),
        "admitted": report.admitted, "completed": report.completed,
        "max_backlog": report.max_backlog,
    }


# On one shard, throughput rises with client count until the shard's
# service-time ceiling (more clients only lengthen the queue after
# that); an arrival rate past the ceiling shows p99 queueing delay
# growing with the backlog -- the saturation behaviour the paper's
# scaling argument is about, now measurable because admission is
# decoupled from completion.
CONCURRENCY = Scenario(
    title="Concurrency -- open-loop clients x arrival rate on "
          "event-loop shards",
    axes=(Axis("gdpr", (False, True)),
          Axis("shards", (1, 2), full=(1, 2, 4)),
          Axis("clients", (1, 4, 16), full=(1, 2, 4, 8, 16)),
          Axis("arrival_rate", (20_000.0, 60_000.0))),
    measure=run_concurrency_cell,
    sizes=ycsb_sizes,
    columns=(SHARDS, ("clients", "clients"), OFFERED, GDPR, OPS,
             ("p50 queue us", scaled("p50_queue", 1e6)),
             ("p99 queue us", scaled("p99_queue", 1e6)),
             ("p99 svc us", scaled("p99_service", 1e6)), BACKLOG),
    footnote="'p99 queue' = open-loop queueing delay (admission to "
             "dispatch); 'p99 svc' = dispatch\nto reply, server-side "
             "queueing included.  Past the service-time ceiling the\n"
             "backlog -- not throughput -- absorbs extra offered load.",
)


def latency_at_load(arrival_rate: float, clients: int,
                    adaptive_batch: bool, cores: int = 1,
                    request_distribution: Optional[str] = None,
                    placement: bool = False, record_count: int = 100,
                    operation_count: int = 400, seed: int = 42) -> Row:
    """One point of the classic open-loop "hockey stick": end-to-end
    latency at one offered load.

    Every point of a curve admits the same YCSB-B stream at a different
    arrival rate against a fresh one-shard, GDPR-off cluster.  Below the
    service-time ceiling (~1 / per-command cost per shard) latency is
    flat -- wire plus service; past it the backlog grows for as long as
    admission continues and p99 latency bends sharply upward.  Offered
    load is independent of completions, so the curve shows the knee a
    closed-loop driver structurally cannot produce.

    ``cores`` is the multi-core axis: the shard dispatches to that many
    simulated cores, and ``adaptive_batch`` turns the per-worker
    batching controller on.

    ``request_distribution`` overrides the workload's key popularity
    ("zipfian" / "uniform" / "latest"; ``None`` keeps YCSB-B's default
    zipfian), and ``placement=True`` turns on the pools' skew-aware
    slot placement -- the default ``False`` keeps the static
    ``slot % K`` partition and its results byte-for-byte.

    ``worker_q99`` holds each worker's queue-delay p99 in seconds;
    ``rebalances`` / ``splits`` count the rebalancer's applies and the
    hot slots it read-split.
    """
    cluster = build_cluster(1, store_factory=_store_factory(False),
                            latency=RAW_ONE_WAY_LATENCY, workers=cores,
                            adaptive_batch=adaptive_batch,
                            placement=True if placement else None)
    spec = WORKLOAD_B.scaled(record_count=record_count,
                             operation_count=operation_count)
    if request_distribution is not None:
        spec = replace(spec, request_distribution=request_distribution)
    runner = OpenLoopRunner(cluster, spec, clients=clients,
                            arrival_rate=arrival_rate, seed=seed)
    runner.preload()
    report = runner.run(operation_count)
    pools = [node.pool for node in cluster.nodes]
    return {
        "throughput": report.throughput,
        "p50_latency": report.latency.percentile(50),
        "p99_latency": report.latency.percentile(99),
        "max_backlog": report.max_backlog,
        "worker_q99": tuple(
            worker["p99_queue_delay"]
            for pool in pools for worker in pool.worker_rows()),
        "rebalances": sum(len(pool.rebalances) for pool in pools),
        "splits": sum(len(event.split_slots)
                      for pool in pools for event in pool.rebalances),
    }


DEFAULT_HOCKEY_RATES = (5_000.0, 10_000.0, 20_000.0, 30_000.0, 36_000.0,
                        40_000.0, 48_000.0, 60_000.0)

# The single-loop curve: eight clients, batching off, one core.
HOCKEY_STICK = Scenario(
    title="Hockey stick -- open-loop latency vs offered load, one "
          "single-core shard",
    axes=(Axis("arrival_rate", DEFAULT_HOCKEY_RATES),),
    measure=latency_at_load,
    fixed={"clients": 8, "adaptive_batch": False},
    sizes=lambda records, ops: {"record_count": max(50, records // 3),
                                "operation_count": max(200, ops // 2)},
    columns=(OFFERED, OPS, P50_LATENCY, P99_LATENCY, BACKLOG),
)


DEFAULT_WORKER_RATES = (20_000.0, 40_000.0, 60_000.0, 80_000.0,
                        120_000.0, 160_000.0)
KNEE_P99_CEILING = 1e-3     # "saturated" = p99 latency past 1 ms
KNEE_HEADING = (f"saturation knee (highest offered rate with p99 <= "
                f"{KNEE_P99_CEILING * 1e3:.1f} ms):")


def knees(rows: Sequence[Row], *axes: str) -> Dict[object, float]:
    """The saturation knee of every curve in ``rows``, keyed by the
    curve's value(s) on ``axes``: the highest offered rate the shard
    absorbed with p99 latency still under :data:`KNEE_P99_CEILING`
    (0.0 if none did)."""
    curve_of = itemgetter(*axes)
    best: Dict[object, float] = {}
    for row in rows:
        absorbed = row["p99_latency"] <= KNEE_P99_CEILING
        best[curve_of(row)] = max(best.get(curve_of(row), 0.0),
                                  row["arrival_rate"] if absorbed else 0.0)
    return best


def _per_core_q99(row: Row, _rows: Sequence[Row]) -> str:
    """A row's per-worker queue-delay p99s (us) as a compact
    ``a/b/...`` cell -- the column that makes skew imbalance visible
    per core instead of hiding inside the pool-wide EWMA."""
    return "/".join(f"{delay * 1e6:.1f}" for delay in row["worker_q99"])


CORES = ("cores", "cores")
PER_CORE_Q99 = ("q99 queue us/core", _per_core_q99)


def workers_ceiling_summary(rows: Sequence[Row]) -> str:
    """The headline numbers: each worker count's knee, vs single-loop."""
    by_cores = knees(rows, "cores")
    base = by_cores.get(1, 0.0)
    lines = [KNEE_HEADING]
    for cores, knee in by_cores.items():
        scale = f"{knee / base:.1f}x single-loop" if base > 0 else "-"
        lines.append(f"  cores={cores}: {int(knee):>7} ops/s  ({scale})")
    return "\n".join(lines)


# Workers-vs-ceiling: the hockey stick rerun per worker count.  Same
# YCSB-B stream, same arrival rates, one curve per ``cores`` value; the
# thing to read is where each curve's knee sits.  One simulated core
# saturates at ~1/``BASE_COMMAND_CPU`` = 40k ops/s; every added core
# raises the ceiling by the share of slots it owns (zipfian-skewed, so
# the hottest core saturates first -- the knee scales sublinearly,
# exactly like a real partitioned shard).
WORKERS = Scenario(
    title="Workers -- multi-core shards: the hockey stick per worker "
          "count, plus the autoscale demo",
    axes=(Axis("cores", (1, 2, 4), full=(1, 2, 4, 8)),
          Axis("arrival_rate", DEFAULT_WORKER_RATES)),
    measure=latency_at_load,
    fixed={"clients": 32, "adaptive_batch": True},
    sizes=lambda records, ops: {"record_count": min(records, 100),
                                "operation_count": min(ops, 400)},
    columns=(CORES, ("batch", on_off("adaptive_batch")), OFFERED, OPS,
             P50_LATENCY, P99_LATENCY, BACKLOG, PER_CORE_Q99),
    summary=workers_ceiling_summary,
    footnote="Same open-loop YCSB-B stream, one curve per worker count; "
             "slots partition\nacross cores, so the zipfian-hot core "
             "saturates first and the knee scales\nsublinearly -- like a "
             "real partitioned shard.",
)


def workers_skew_summary(rows: Sequence[Row]) -> str:
    """Headline: per-core-count knees by curve, the placed/static
    zipfian ratio, and total rebalancer activity."""
    knee = knees(rows, "cores", "request_distribution", "placement")
    lines = [KNEE_HEADING]
    for cores in sorted({row["cores"] for row in rows}):
        static = knee[cores, "zipfian", False]
        placed = knee[cores, "zipfian", True]
        uniform = knee[cores, "uniform", False]
        lines.append(f"  cores={cores}: zipf static {int(static):>7}  "
                     f"zipf placed {int(placed):>7}  "
                     f"uniform {int(uniform):>7}")
        if static > 0:
            lines.append(f"    placed/static zipfian ratio: "
                         f"{placed / static:.2f}x")
    fired = sum(row["rebalances"] for row in rows)
    split = sum(row["splits"] for row in rows)
    lines.append(f"rebalances fired: {fired} (slots read-split: "
                 f"{split})")
    return "\n".join(lines)


# The skew axis: zipfian vs uniform knees, static vs placed.  Three
# curves per worker count over the same arrival rates:
#
# * zipfian / static -- theta-0.99 key popularity over the fixed
#   ``slot % K`` partition.  One hot slot pins one core while its
#   siblings idle, so the knee barely moves past the single-core
#   ceiling;
# * zipfian / placed -- same stream with skew-aware placement on: the
#   pool's ``repro.cluster.workers.Rebalancer`` re-homes hot slots
#   (greedy LPT) and read-splits the hottest one, pushing the knee back
#   toward the uniform curve;
# * uniform / static -- the no-skew control the placed zipfian curve
#   should approach.
#
# At most 44 records: few enough keys that theta-0.99 zipfian piles
# >50% of requests onto one 4-core partition -- the skew the placement
# layer exists to fix.
WORKERS_SKEW = Scenario(
    title="Workers skew -- zipfian vs uniform knees, static slot%K vs "
          "skew-aware placement",
    axes=(Axis("cores", (1, 2, 4), full=(1, 2, 4, 8)),
          Axis(("request_distribution", "placement"),
               (("zipfian", False), ("zipfian", True),
                ("uniform", False))),
          Axis("arrival_rate", DEFAULT_WORKER_RATES)),
    measure=latency_at_load,
    fixed={"clients": 32, "adaptive_batch": True},
    sizes=lambda records, ops: {"record_count": min(records, 44),
                                "operation_count": min(ops, 400)},
    columns=(CORES, ("dist", "request_distribution"),
             ("place", on_off("placement")), OFFERED, OPS, P99_LATENCY,
             BACKLOG, PER_CORE_Q99, ("rebal", "rebalances"),
             ("split", "splits")),
    summary=workers_skew_summary,
    footnote="Theta-0.99 zipfian over few keys piles most requests onto "
             "one slot%K\npartition: the static knee stalls near the "
             "single-core ceiling while siblings\nidle (see the per-core "
             "q99 spread).  'place on' rows let the pool's\nrebalancer "
             "re-home hot slots (greedy LPT) and read-split the hottest "
             "one, so\nthe zipfian knee climbs back toward the uniform "
             "control curve.",
)


def run_autoscale_demo() -> List[Row]:
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
    then recovering as each rung lands: ``p99_latency`` is end-to-end
    seconds, ``queue_ewma`` the hottest pool's queueing-delay EWMA at
    the phase's end, ``total_workers`` counts every serving shard's,
    ``shards_serving`` the shards owning populated slots, and
    ``actions`` the autoscale actions taken during the phase.
    """
    rates = (30_000.0,) + (90_000.0,) * 5
    ops_per_phase, record_count = 400, 100
    cluster = build_cluster(2, slot_map=SlotMap.even(1),
                            store_factory=_store_factory(False),
                            latency=RAW_ONE_WAY_LATENCY)
    keys = [build_key_name(number) for number in range(record_count)]

    def spill(_scaler: Autoscaler, _target: int) -> str:
        new_shard = cluster.slots.add_shard()
        # Every other slot: an even split.
        moving = _populated_slots(cluster, keys, 0)[::2]
        for slot in moving:
            SlotMigrator(cluster, slot, new_shard).run_as_events(
                cluster.clock, batch_size=8, interval=2e-4)
        return f"spill {len(moving)} slots -> shard {new_shard}"

    pools = [node.pool for node in cluster.nodes]
    scaler = Autoscaler(
        cluster.clock, pools,
        AutoscaleConfig(interval=1e-3, high_delay=300e-6,
                        max_workers=2, cooldown=3e-3,
                        max_scale_outs=1),
        scale_out=spill)
    spec = WORKLOAD_B.scaled(record_count=record_count,
                             operation_count=ops_per_phase * len(rates))
    runner = OpenLoopRunner(cluster, spec, clients=32,
                            arrival_rate=rates[0], seed=42)
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
        phases.append({
            "phase": number, "arrival_rate": rate,
            "throughput": report.throughput,
            "p99_latency": report.latency.percentile(99),
            "queue_ewma": max(pool.queueing_delay_ewma()
                              for pool in pools),
            "total_workers": sum(pool.num_workers for pool in pools),
            "shards_serving": len(serving),
            "actions": ",".join(taken) if taken else "-",
        })
    scaler.stop()
    return phases


# A scenario with no axes: one measurement, one row per phase.
AUTOSCALE_DEMO = Scenario(
    title="autoscale demo -- the queueing-delay EWMA triggers a live "
          "worker raise, then a\nspill of half the slots to a spare "
          "shard, while the stream keeps arriving:",
    axes=(),
    measure=run_autoscale_demo,
    columns=(("phase", "phase"), OFFERED, OPS, P99_LATENCY,
             ("ewma us", scaled("queue_ewma", 1e6)),
             ("workers", "total_workers"), ("shards", "shards_serving"),
             ("actions", "actions")),
)


def _percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * int(pct) // 100))  # ceil
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_replication_cell(shards: int, replicas: int, delay: float,
                         gdpr: bool, record_count: int = 300,
                         operation_count: int = 800,
                         seed: int = 42) -> Row:
    """One replication point: a cluster of ``shards``, each carrying
    ``replicas`` replicas behind a one-way ``delay``-second stream.

    Three measurements per cell:

    * **throughput** of a depth-8 pipelined YCSB-B mix against the
      primaries (the replication fan-out itself is the only new cost);
    * a **stale-read sample**: ``replica_reads`` reads routed to
      replicas immediately after the mix, ``stale_reads`` of which
      raced the in-flight backlog;
    * **erasure horizons**: 16 keys are DELed one at a time and the
      cluster-wide horizon -- simulated seconds until the key is
      invisible on every primary *and* replica -- is measured for each
      (``horizons`` of them), reported as percentiles (the paper's
      "including all its replicas" requirement, quantified).
    """
    erase_count = 16
    cluster = build_cluster(shards, store_factory=_store_factory(gdpr),
                            latency=RAW_ONE_WAY_LATENCY)
    # Each replicated command lands as its own event on the cluster
    # clock, so the stale-read sample reflects the delay window rather
    # than an ever-growing backlog.
    replication = cluster.attach_replication(delays=(delay,) * replicas)
    keys, value, _ = _load(cluster, record_count, 8, seed)
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
    step = max(delay / 8, 1e-4)
    horizons = []
    for key in keys[::max(1, len(keys) // erase_count)][:erase_count]:
        cluster.call("DEL", key)
        horizon = replication.erasure_horizon(
            [key], step=step, max_wait=10.0 + 4 * delay)
        if horizon is not None:
            horizons.append(horizon)
    horizons.sort()
    return {
        "throughput": throughput,
        "replica_reads": cluster.replica_reads - reads_before,
        "stale_reads": cluster.stale_replica_reads - stale_before,
        "horizons": len(horizons),
        "horizon_p50": _percentile(horizons, 50),
        "horizon_p99": _percentile(horizons, 99),
        "horizon_max": horizons[-1] if horizons else 0.0,
    }


def _stale_fraction(row: Row, _rows: Sequence[Row]) -> str:
    reads = row["replica_reads"]
    return f"{row['stale_reads'] / reads if reads else 0.0:.2f}"


# Throughput shows what the fan-out costs the primaries; the horizon
# percentiles show what the *delay* costs compliance -- erasure is only
# complete when the slowest replica catches up.
REPLICATION = Scenario(
    title="Replication -- per-shard replica groups, erasure horizon "
          "across every copy",
    axes=(Axis("gdpr", (False, True)),
          Axis("shards", (1, 2), full=(1, 2, 4)),
          Axis("replicas", (1, 2)),
          Axis("delay", (0.001, 0.010))),
    measure=run_replication_cell,
    sizes=ycsb_sizes,
    columns=(SHARDS, ("replicas", "replicas"),
             ("delay ms", scaled("delay", 1e3, 3)), GDPR, OPS,
             ("stale frac", _stale_fraction),
             ("hz p50 ms", scaled("horizon_p50", 1e3, 3)),
             ("hz p99 ms", scaled("horizon_p99", 1e3, 3)),
             ("hz max ms", scaled("horizon_max", 1e3, 3))),
    footnote="'hz pXX' = erasure horizon: simulated ms from a DEL on "
             "the primary until the key\nis invisible on every primary "
             "and every replica of every shard; 'stale frac' =\n"
             "fraction of a replica-read sample that raced an in-flight "
             "write.",
)


FANOUT_REPLICA_DELAY = 0.020


def _subject_store(shards: int, subject_keys: int,
                   replicas: int = 0) -> ShardedGDPRStore:
    """A sharded GDPR store -- shards in the same compliant
    configuration the throughput sweeps' GDPR-on rows use -- holding
    ``subject_keys`` records, every other one owned by ``alice``.
    ``replicas`` > 0 attaches that many per shard behind a 20 ms stream
    and lets them converge on the load; every replicated command is a
    daemon delivery event on the store's scheduler, so a horizon is
    measured the way an event-driven deployment would observe it."""
    store = ShardedGDPRStore(num_shards=shards,
                             kv_factory=_store_factory(gdpr=True))
    if replicas:
        store.attach_replication(delays=(FANOUT_REPLICA_DELAY,) * replicas)
    rng = random.Random(7)
    for number in range(subject_keys):
        owner = "alice" if number % 2 == 0 else f"other-{number % 7}"
        store.put(f"user:{number}", bytes(rng.randrange(97, 123)
                                          for _ in range(32)),
                  GDPRMetadata(owner=owner,
                               purposes=frozenset({"service"})))
    if replicas:
        store.clock.advance(2 * FANOUT_REPLICA_DELAY)
    return store


def replicated_erasure_fanout(shards: int, replicas: int,
                              subject_keys: int = 40) -> Row:
    """Art. 17 through replicas: erase one subject across every shard of
    a replicated :class:`ShardedGDPRStore` and report how long until the
    last replica stopped serving the last key (-1 if it never did)."""
    store = _subject_store(shards, subject_keys, replicas)
    keys = store.keys_of_subject("alice")
    receipt = store.erase_subject("alice")
    horizon = store.replication.erasure_horizon(
        keys, step=FANOUT_REPLICA_DELAY / 10)
    return {
        "total_replicas": replicas * shards,
        "keys_erased": len(receipt.keys_erased),
        "erase_seconds": receipt.duration,
        "horizon_seconds": horizon if horizon is not None else -1.0,
        "crypto_erased": receipt.crypto_erased,
    }


def _subject_sizes(records: int, ops: int) -> Dict[str, int]:
    return {"subject_keys": max(20, records // 5)}


KEYS_ERASED = ("keys_erased", "keys_erased")
ERASE_MS = ("erase_ms", scaled("erase_seconds", 1e3, 3))


REPLICATED_ERASURE_FANOUT = Scenario(
    title="Art. 17 erasure through replicas (event-delivered, shared "
          "keystore):",
    axes=(Axis("shards", (1, 2), full=(1, 2, 4)),
          Axis("replicas", (2,))),
    measure=replicated_erasure_fanout,
    sizes=_subject_sizes,
    columns=(SHARDS, ("total replicas", "total_replicas"),
             KEYS_ERASED, ERASE_MS,
             ("horizon_ms", scaled("horizon_seconds", 1e3, 3)),
             ("crypto", "crypto_erased")),
)


def erasure_fanout(shards: int, subject_keys: int = 60) -> Row:
    """Simulated cost of one cross-shard Art. 17 erasure.

    One data subject's records spread over every shard; the erasure fans
    out one DEL and one AOF compaction per shard while a single
    crypto-erasure voids all shards at once.
    """
    receipt = _subject_store(shards, subject_keys).erase_subject("alice")
    return {
        "keys_erased": len(receipt.keys_erased),
        "shards_touched": len(receipt.shards_touched),
        "erase_seconds": receipt.duration,
        "residual_in_aof": receipt.residual_in_aof,
    }


ERASURE_FANOUT = Scenario(
    title="cross-shard Art. 17 erasure fan-out:",
    axes=(Axis("shards", (1, 2, 4), full=(1, 2, 4, 8)),),
    measure=erasure_fanout,
    sizes=_subject_sizes,
    columns=(SHARDS, KEYS_ERASED, ("shards_touched", "shards_touched"),
             ERASE_MS, ("residual", "residual_in_aof")),
)
