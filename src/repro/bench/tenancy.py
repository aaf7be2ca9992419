"""Tenancy scenario: quota isolation under a noisy neighbour.

Two tenants share one event-driven cluster.  The *quiet* tenant runs a
steady YCSB-A stream inside its rate; the *noisy* tenant offers several
times its ops/s quota, so the admission gate throttles the excess with
``QUOTAEXCEEDED`` before the engine sees it.  The scenario reports, per
stream:

* what the gate **admitted** vs **throttled** (the noisy tenant's
  admitted rate converges on its quota -- the cap holds);
* the quiet tenant's **p99 latency**, next to a solo baseline run of the
  same stream on an idle cluster -- quota enforcement is the isolation
  mechanism, so the neighbour's pressure must not leak into the quiet
  tenant's tail;
* the **metering chain**: per-tenant usage reports sealed into the
  block-mode audit log and re-verified, so the throttle counts above are
  also billing-grade evidence.

Same seed => identical numbers, byte for byte; CI diffs two runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..common.clock import SimClock
from ..cluster import build_cluster
from ..kvstore import KeyValueStore, StoreConfig
from ..tenancy import (
    MeteringPipeline,
    TenantGate,
    TenantQuota,
    TenantRegistry,
)
from ..ycsb.openloop import OpenLoopReport, OpenLoopRunner
from ..ycsb.workloads import WorkloadSpec
from .calibration import BASE_COMMAND_CPU
from .reporting import render_table

SHARDS = 2
CLIENTS = 4
SEED = 42

QUIET_RATE = 2_000.0            # offered, well inside capacity
NOISY_QUOTA = 3_000.0           # ops/s the noisy tenant paid for
NOISY_BURST = 50.0              # modest burst: the cap binds quickly
NOISY_OFFERED = 4 * NOISY_QUOTA  # pressure: 4x over quota


@dataclass
class TenantStream:
    """One tenant's view of a run."""

    tenant: str
    phase: str                  # "solo" or "contended"
    offered_rate: float
    completed: int
    throttled: int
    admitted_rate: float        # ops the engine actually served, per sec
    p99_ms: float


@dataclass
class TenancyResult:
    streams: List[TenantStream]
    metering_reports: int       # usage-reports sealed on the chain
    metering_verified: int      # chain members re-verified after the run
    usage: Dict[str, Dict[str, int]]   # tenant -> summed report deltas


def _registry() -> TenantRegistry:
    registry = TenantRegistry()
    registry.register("quiet")          # no quota: inside its rate
    registry.register("noisy", quota=TenantQuota(
        ops_per_sec=NOISY_QUOTA, burst=NOISY_BURST))
    return registry


def _make_cluster():
    clock = SimClock()
    gate = TenantGate(_registry(), clock)

    def store_factory(index, node_clock):
        return KeyValueStore(
            StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, seed=index),
            clock=node_clock)

    cluster = build_cluster(SHARDS, store_factory=store_factory,
                            clock=clock, tenant_gate=gate)
    return cluster, gate, clock


def _spec(name: str, record_count: int, operation_count: int,
          scale: float = 1.0) -> WorkloadSpec:
    return WorkloadSpec(name=name, read_proportion=0.5,
                        update_proportion=0.5,
                        record_count=record_count,
                        operation_count=max(1, int(
                            operation_count * scale)))


def _stream(tenant: str, phase: str, offered: float,
            report: OpenLoopReport) -> TenantStream:
    served = report.completed - report.throttled
    rate = served / report.sim_elapsed if report.sim_elapsed > 0 else 0.0
    return TenantStream(
        tenant=tenant, phase=phase, offered_rate=offered,
        completed=report.completed, throttled=report.throttled,
        admitted_rate=rate,
        p99_ms=report.latency.percentile(99) * 1e3)


def run_tenancy(record_count: int = 300,
                operation_count: int = 800) -> TenancyResult:
    """The two-phase comparison: quiet tenant solo, then both."""
    # Phase A -- the quiet tenant alone on an idle cluster.
    cluster, _, _ = _make_cluster()
    solo = OpenLoopRunner(
        cluster, _spec("quiet-mix", record_count, operation_count),
        clients=CLIENTS, arrival_rate=QUIET_RATE, seed=SEED,
        tenant="quiet").run()

    # Phase B -- same quiet stream, now next to the noisy neighbour.
    # Both runners share the clock: begin() both, drain, finish() both.
    cluster, gate, clock = _make_cluster()
    pipeline = MeteringPipeline(gate, clock=clock, interval=0.1)
    quiet_runner = OpenLoopRunner(
        cluster, _spec("quiet-mix", record_count, operation_count),
        clients=CLIENTS, arrival_rate=QUIET_RATE, seed=SEED,
        tenant="quiet")
    noisy_runner = OpenLoopRunner(
        cluster,
        _spec("noisy-mix", record_count, operation_count,
              scale=NOISY_OFFERED / QUIET_RATE),
        clients=CLIENTS, arrival_rate=NOISY_OFFERED, seed=SEED + 1,
        tenant="noisy")
    quiet_runner.begin()
    noisy_runner.begin()
    clock.run_until_idle()
    quiet = quiet_runner.finish()
    noisy = noisy_runner.finish()
    pipeline.flush()
    pipeline.stop_timer()

    usage = {tenant: pipeline.totals_of(tenant)
             for tenant in ("quiet", "noisy")}
    return TenancyResult(
        streams=[
            _stream("quiet", "solo", QUIET_RATE, solo),
            _stream("quiet", "contended", QUIET_RATE, quiet),
            _stream("noisy", "contended", NOISY_OFFERED, noisy),
        ],
        metering_reports=len(pipeline.reports),
        metering_verified=pipeline.verify(),
        usage=usage)


def tenancy_table(result: TenancyResult) -> str:
    header = ["tenant", "phase", "offered/s", "completed", "throttled",
              "admitted/s", "p99_ms"]
    rows = [[s.tenant, s.phase, int(s.offered_rate), s.completed,
             s.throttled, round(s.admitted_rate, 1), round(s.p99_ms, 3)]
            for s in result.streams]
    lines = [render_table(header, rows)]
    noisy = next(s for s in result.streams if s.tenant == "noisy")
    quiet_solo = next(s for s in result.streams
                      if (s.tenant, s.phase) == ("quiet", "solo"))
    quiet_both = next(s for s in result.streams
                      if (s.tenant, s.phase) == ("quiet", "contended"))
    lines.append("")
    lines.append(f"noisy admitted rate vs quota: "
                 f"{noisy.admitted_rate:.1f} / {NOISY_QUOTA:.0f} ops/s "
                 f"({noisy.admitted_rate / NOISY_QUOTA:.0%})")
    ratio = (quiet_both.p99_ms / quiet_solo.p99_ms
             if quiet_solo.p99_ms > 0 else float("inf"))
    lines.append(f"quiet p99 contended vs solo: "
                 f"{quiet_both.p99_ms:.3f} ms / "
                 f"{quiet_solo.p99_ms:.3f} ms ({ratio:.2f}x)")
    lines.append(f"metering: {result.metering_reports} usage-reports "
                 f"sealed, {result.metering_verified} chain members "
                 f"verified")
    noisy_usage = result.usage["noisy"]
    lines.append(f"noisy tenant billed: {noisy_usage.get('ops', 0)} "
                 f"admitted ops, {noisy_usage.get('throttled', 0)} "
                 f"throttles on the chain")
    return "\n".join(lines)
