"""Open-loop, multi-client load generation over the event core.

The closed-loop :class:`~repro.ycsb.runner.WorkloadRunner` issues the
next operation only when the previous one returns, so offered load always
equals completed load and queueing is invisible.  This module is YCSB's
*other* mode (``-target``): operations are **admitted at a configured
arrival rate** regardless of completions, dispatched to a pool of M
concurrent simulated clients, and any operation that finds every client
busy waits in an explicit backlog.  Two delays are therefore measured
separately per operation:

* **queueing delay** -- admission to dispatch (how long the op waited for
  a free client; grows without bound past saturation);
* **service time** -- dispatch to reply (wire + server queue + execution;
  approaches a ceiling as the shard's loop saturates).

Arrivals are deterministic: a seeded RNG drives exponential
interarrivals (Poisson arrivals, the classic open-loop model), so two
runs with the same seed admit the same operations at the same simulated
instants and produce identical histograms.

The runner drives a cluster (:func:`repro.cluster.build_cluster`; one
shard is just a one-node cluster): each simulated client keeps its own
connection per shard **and its own routing cache** (seeded from the
cluster client's snapshot at construction), routes by hash slot, and
follows MOVED/ASK redirects.  Because caches are per client -- as they
are across real cluster-client processes -- a topology change leaves M
divergent views that re-converge one MOVED at a time:
``OpenLoopReport.route_updates`` counts the MOVED lessons absorbed, so
convergence after a migration is itself a measured number.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from ..common.clock import SimClock
from ..common.errors import MovedError, RedirectLoopError
from ..common.histogram import LatencyHistogram
from ..common.resp import RespError
from ..cluster.client import ClusterClient, parse_redirect
from ..cluster.slots import slot_for_key
from ..kvstore.server import EventConnection
from .adapters import pack_fields
from .distributions import CounterGenerator, DiscreteGenerator
from .generator import FieldGenerator, build_key_name
from .runner import make_chooser
from .workloads import WorkloadSpec


class ArrivalProcess:
    """Deterministic Poisson interarrival generator for a given offered
    rate."""

    def __init__(self, rate: float,
                 rng: Optional[random.Random] = None) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate = rate
        self._rng = rng if rng is not None else random.Random(0)

    def next_interarrival(self) -> float:
        return self._rng.expovariate(self.rate)


class _Op:
    """One admitted operation's lifecycle."""

    __slots__ = ("kind", "phases", "phase", "arrival", "start", "finish",
                 "asking", "redirects", "failed", "throttled")

    def __init__(self, kind: str, phases: List[List[Any]]) -> None:
        self.kind = kind
        self.phases = phases        # each phase: one argv, one round trip
        self.phase = 0
        self.arrival = 0.0
        self.start = 0.0
        self.finish = 0.0
        self.asking = False
        self.redirects = 0
        self.failed = False
        self.throttled = False      # rejected with QUOTAEXCEEDED


@dataclass
class OpenLoopReport:
    """What an open-loop run measured."""

    clients: int
    arrival_rate: float
    admitted: int
    completed: int
    sim_elapsed: float
    queue_delay: LatencyHistogram = field(default_factory=LatencyHistogram)
    service_time: LatencyHistogram = field(default_factory=LatencyHistogram)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    failures: int = 0
    throttled: int = 0          # ops rejected with QUOTAEXCEEDED (quota
                                # rejections are not failures: the gate
                                # worked); kept out of summary() so
                                # non-tenant parity baselines are stable
    redirects_followed: int = 0
    max_backlog: int = 0
    route_updates: int = 0      # MOVED lessons absorbed into per-client
                                # routing caches (cache convergence)
    # Per-worker latency attribution from the shards' worker pools.  The
    # histograms are the per-worker server-side distributions folded
    # together with LatencyHistogram.merge, so the shard-level
    # percentiles keep their fidelity; the rows expose the per-core
    # imbalance a hot key causes under the slot % K partition.
    # Pool stats are cumulative since the pool started serving (a fresh
    # cluster per run keeps them per-run, which is what the bench does).
    workers: int = 0
    server_queue_delay: LatencyHistogram = field(
        default_factory=LatencyHistogram)
    server_service_time: LatencyHistogram = field(
        default_factory=LatencyHistogram)
    worker_rows: List[Dict[str, object]] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Completions per simulated second."""
        if self.sim_elapsed <= 0:
            return 0.0
        return self.completed / self.sim_elapsed

    def summary(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "arrival_rate": self.arrival_rate,
            "admitted": self.admitted,
            "completed": self.completed,
            "throughput_ops_per_s": round(self.throughput, 1),
            "sim_elapsed_s": self.sim_elapsed,
            "queue_delay": self.queue_delay.summary(),
            "service_time": self.service_time.summary(),
            "failures": self.failures,
            "redirects_followed": self.redirects_followed,
            "route_updates": self.route_updates,
            "max_backlog": self.max_backlog,
        }


class _SimClient:
    """One simulated client: per-shard connections, one op in flight,
    and a private routing cache.

    The cache starts as a snapshot of the cluster client's table and is
    updated only by MOVED replies *this* client receives -- after a
    migration, each client discovers the new owner independently (one
    wasted hop each), exactly as separate client processes would.
    """

    def __init__(self, runner: "OpenLoopRunner", index: int) -> None:
        self._runner = runner
        self.index = index
        self._conns: Dict[int, EventConnection] = {}
        self.routes: List[int] = runner.cluster.routing_snapshot()
        self.op: Optional[_Op] = None
        self._skip_replies = 0         # pending +OKs answering ASKING /
                                       # the connection's TENANT stamp

    def _connection(self, shard: int) -> EventConnection:
        conn = self._conns.get(shard)
        if conn is None:
            conn = self._runner.cluster.nodes[shard].connect()
            conn.on_reply = self._on_reply
            self._conns[shard] = conn
            if self._runner.tenant is not None:
                # Stamp the fresh connection once; the +OK is consumed
                # like ASKING's.
                conn.send_command("TENANT", self._runner.tenant)
                self._skip_replies += 1
        return conn

    def issue(self, op: _Op) -> None:
        self.op = op
        op.start = self._runner.clock.now()
        self._send_phase()

    def _send_phase(self, shard: Optional[int] = None) -> None:
        op = self.op
        argv = op.phases[op.phase]
        if shard is None:
            shard = self.routes[slot_for_key(argv[1])]
        conn = self._connection(shard)
        if op.asking:
            conn.send_command("ASKING")
            op.asking = False
            self._skip_replies += 1
        conn.send_command(*argv)

    def _on_reply(self, value: Any) -> None:
        if self._skip_replies:         # +OK answering ASKING / TENANT
            self._skip_replies -= 1
            return
        op = self.op
        redirect = parse_redirect(value)
        if redirect is not None:
            op.redirects += 1
            self._runner.redirects_followed += 1
            if op.redirects > self._runner.max_redirects:
                raise RedirectLoopError(
                    "open-loop request redirected "
                    f"{op.redirects} times without converging")
            if isinstance(redirect, MovedError):
                # Durable topology change: teach *this client's* cache
                # only -- every other client converges through its own
                # MOVED, the per-process discovery real clusters show.
                self.routes[redirect.slot] = redirect.shard
                self._runner.route_updates += 1
            else:
                op.asking = True
            self._send_phase(redirect.shard)
            return
        if isinstance(value, RespError):
            if value.message.startswith("QUOTAEXCEEDED"):
                op.throttled = True
            else:
                op.failed = True
        op.phase += 1
        if op.phase < len(op.phases):
            self._send_phase()
        else:
            self._runner._complete(self, op)


class OpenLoopRunner:
    """Admit a YCSB-shaped operation stream at a fixed arrival rate."""

    def __init__(self, cluster: ClusterClient, spec: WorkloadSpec,
                 clients: int = 4, arrival_rate: float = 10_000.0,
                 seed: int = 42, max_redirects: int = 5,
                 tenant: Optional[str] = None) -> None:
        if clients < 1:
            raise ValueError("need at least one simulated client")
        if spec.scan_proportion > 0:
            raise ValueError(
                "the open-loop driver issues point operations; scans "
                "(workload E) need the closed-loop runner")
        self.cluster = cluster
        self.clock: SimClock = cluster.clock
        self.spec = spec
        self.max_redirects = max_redirects
        self.arrival_rate = arrival_rate
        # Per-tenant stream: keys live under the tenant's namespace and
        # every connection is stamped with TENANT before first use, so
        # the cluster's admission gate sees (and bills) this stream as
        # that tenant.
        self.tenant = tenant
        if tenant is None:
            self._key_prefix = ""
        else:
            from ..tenancy.registry import TENANT_SEP
            self._key_prefix = tenant + TENANT_SEP
        root = random.Random(seed)
        self._arrivals = ArrivalProcess(
            arrival_rate, rng=random.Random(root.randrange(1 << 30)))
        self.fields = FieldGenerator(spec.field_count, spec.field_length,
                                     seed=root.randrange(1 << 30))
        self.insert_counter = CounterGenerator(spec.record_count)
        self._chooser = make_chooser(
            spec, self.insert_counter,
            random.Random(root.randrange(1 << 30)))
        self._op_mix = DiscreteGenerator(
            list(spec.operation_mix()),
            rng=random.Random(root.randrange(1 << 30)))
        self._clients = [_SimClient(self, index)
                         for index in range(clients)]
        self._idle: Deque[_SimClient] = deque(self._clients)
        self._backlog: Deque[_Op] = deque()
        self.redirects_followed = 0
        self.route_updates = 0
        self._report: Optional[OpenLoopReport] = None
        self._to_admit = 0
        self._started_at = 0.0
        self._redirects_before = 0
        self._updates_before = 0

    def set_arrival_rate(self, rate: float) -> None:
        """Change the offered rate between runs (a ramping workload for
        the autoscaler demo).  The interarrival RNG stream continues, so
        a multi-phase ramp is as deterministic as a single run."""
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.arrival_rate = rate
        self._arrivals.rate = rate

    # -- workload plumbing -------------------------------------------------

    def preload(self) -> int:
        """Install the record set directly into the shards (the load
        phase is not what this runner measures), then square up the
        timeline so preload CPU never bills to the run."""
        for keynum in range(self.spec.record_count):
            key = self._key_prefix + build_key_name(keynum)
            value = pack_fields(self.fields.build_values())
            # Authoritative routing, not the client's cached table: the
            # direct store write bypasses the server's MOVED check, so a
            # stale cache (possible after a migration, now that MOVED
            # lessons stay per client) must not plant records on a shard
            # that no longer owns the slot.
            shard = self.cluster.slots.shard_for_key(key)
            self.cluster.nodes[shard].store.execute("SET", key, value)
        self.cluster.sync()
        return self.spec.record_count

    def _next_existing_key(self) -> str:
        keynum = min(self._chooser.next_value(),
                     self.insert_counter.last_value())
        return self._key_prefix + build_key_name(max(keynum, 0))

    def _make_op(self) -> _Op:
        kind = self._op_mix.next_value()
        if kind == "read":
            return _Op("read", [["GET", self._next_existing_key()]])
        if kind == "update":
            return _Op("update", [[
                "SET", self._next_existing_key(),
                pack_fields(self.fields.build_values())]])
        if kind == "insert":
            keynum = self.insert_counter.next_value()
            return _Op("insert", [[
                "SET", self._key_prefix + build_key_name(keynum),
                pack_fields(self.fields.build_values())]])
        if kind == "rmw":
            key = self._next_existing_key()
            return _Op("rmw", [
                ["GET", key],
                ["SET", key, pack_fields(self.fields.build_values())]])
        raise ValueError(f"unknown operation {kind!r}")

    # -- the open loop -----------------------------------------------------

    def run(self, operation_count: Optional[int] = None) -> OpenLoopReport:
        """Admit ``operation_count`` operations at the configured rate and
        drive the event loop until the last one completes."""
        self.begin(operation_count)
        self.clock.run_until_idle()
        return self.finish()

    def begin(self, operation_count: Optional[int] = None) -> None:
        """Schedule this runner's admission stream onto the shared clock
        without driving it.  Several runners -- per-tenant streams over
        one cluster -- ``begin()`` on the same clock, the caller runs the
        clock once, then ``finish()``es each for its report."""
        total = (operation_count if operation_count is not None
                 else self.spec.operation_count)
        report = OpenLoopReport(
            clients=len(self._clients), arrival_rate=self.arrival_rate,
            admitted=0, completed=0, sim_elapsed=0.0)
        self._report = report
        self._to_admit = total
        self._started_at = self.clock.now()
        # Snapshot the lifetime counters so this report carries *this
        # run's* redirects and cache lessons, not the runner's history.
        self._redirects_before = self.redirects_followed
        self._updates_before = self.route_updates
        if total > 0:
            self.clock.schedule_after(self._arrivals.next_interarrival(),
                                      self._arrive, label="arrival")

    def finish(self) -> OpenLoopReport:
        """Close out a :meth:`begin` whose clock has been driven to
        completion and return its report."""
        report = self._report
        report.sim_elapsed = self.clock.now() - self._started_at
        report.redirects_followed = self.redirects_followed \
            - self._redirects_before
        report.route_updates = self.route_updates - self._updates_before
        self._attribute_workers(report)
        return report

    def _attribute_workers(self, report: OpenLoopReport) -> None:
        """Fold each shard's per-worker server-side histograms into the
        report: merged dispatch-queue delay and service-time
        distributions, plus per-core rows."""
        pools = [node.pool for node in self.cluster.nodes]
        report.workers = sum(pool.num_workers for pool in pools)
        for shard, pool in enumerate(pools):
            report.server_queue_delay.merge(pool.merged_queue_delay())
            report.server_service_time.merge(pool.merged_service_time())
            for row in pool.worker_rows():
                report.worker_rows.append({"shard": shard, **row})

    def _arrive(self) -> None:
        report = self._report
        op = self._make_op()
        op.arrival = self.clock.now()
        report.admitted += 1
        if self._idle:
            self._dispatch(self._idle.popleft(), op)
        else:
            self._backlog.append(op)
            report.max_backlog = max(report.max_backlog,
                                     len(self._backlog))
        if report.admitted < self._to_admit:
            self.clock.schedule_after(self._arrivals.next_interarrival(),
                                      self._arrive, label="arrival")

    def _dispatch(self, client: _SimClient, op: _Op) -> None:
        self._report.queue_delay.record(self.clock.now() - op.arrival)
        client.issue(op)

    def _complete(self, client: _SimClient, op: _Op) -> None:
        op.finish = self.clock.now()
        report = self._report
        report.completed += 1
        report.service_time.record(op.finish - op.start)
        report.latency.record(op.finish - op.arrival)
        if op.throttled:
            report.throttled += 1
        elif op.failed:
            report.failures += 1
        if self._backlog:
            self._dispatch(client, self._backlog.popleft())
        else:
            self._idle.append(client)
