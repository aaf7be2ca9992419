"""The four workloads: seeded inputs, set-up, the measured run, the checks.

Every region is bounded by a *count* (records, ops, completions), never by a
duration, so simulated results cannot depend on host speed.  ``--seconds``
only scales the frozen op counts below (they are tuned so that the default
10 gives a ~9 s run phase on the reference host).  Inputs are generated up
front from ``--seed`` with the repo's own YCSB generators and handed to the
system as plain lists; the run phase therefore times the system, not the
generator.

Closed-loop workloads share one driver (:class:`ClosedLoopRun`); the
open-loop one drives the event scheduler directly.  All of them verify
their outputs while they run: a shadow map proves every read returns the
last value written, every Art. 17 leaves its subject unreachable, the audit
chain verifies with the expected record count, and the open loop completes
exactly what it admitted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import StoreError
from repro.common.resp import RespError
from repro.gdpr import rights
from repro.ycsb.adapters import pack_fields
from repro.ycsb.distributions import (
    DiscreteGenerator,
    ScrambledZipfianGenerator,
)
from repro.ycsb.generator import FieldGenerator, build_key_name
from repro.ycsb.openloop import OpenLoopRunner, _Op
from repro.ycsb.workloads import WORKLOAD_B

import stacks

READ, UPDATE, ACCESS, EXPORT, ERASE, IDLE = (
    "read", "update", "access", "export", "erase", "idle")

FIELD_COUNT = 10
FIELD_LENGTH = 100
RECORD_BYTES = FIELD_COUNT * FIELD_LENGTH

# Slice sizes: each is ~100-200 ms of host work on the reference host.
GEN_RECORD_SLICE = 250
GEN_OP_SLICE = 4000
LOAD_SLICE = 200
RUN_SLICE = 400
EVENT_SLICE = 1600          # open loop: completions per slice


class NullTimer:
    """Stands in for ``SliceTimer`` where nothing is timed."""

    def measure(self, region: str, work: Callable[[], object],
                units: int = 1) -> object:
        return work()


def sliced(timer, region: str, total: int, step: int,
           work: Callable[[int, int], None]) -> None:
    for start in range(0, total, step):
        stop = min(start + step, total)
        timer.measure(region, lambda: work(start, stop), units=stop - start)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Exact nearest-rank percentile (the repo's histogram rounds to ~2%
    buckets, which would quantize the gated numbers)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class CheckFailure(Exception):
    """An output check failed: the run is not correct."""


@dataclass(frozen=True)
class Size:
    records: int
    ops: int                 # run-phase ops at --seconds 10
    per_subject: int = 1     # records owned by one data subject
    rights_every: int = 0    # one subject-rights request every N ops
    windows: int = 0         # tiered_cold: access windows
    lat_ops: int = 0         # openloop_cores: ops at the latency step


# -- shared input generation ---------------------------------------------------


class Workload:
    """Seeded inputs + set-up for one workload (see subclasses)."""

    name = ""
    why = ""
    closed_loop = True
    size = Size(0, 0)
    smoke_size = Size(0, 0)
    run_slice = RUN_SLICE

    def __init__(self, seed: int, seconds: float = 10.0,
                 smoke: bool = False) -> None:
        self.seed = seed
        base = self.smoke_size if smoke else self.size
        scale = 1.0 if smoke else seconds / 10.0
        self.records_n = base.records
        self.ops_n = max(base.rights_every or 1, int(round(base.ops * scale)))
        self.base = base
        self.scale = scale
        self.records: List[Tuple[str, Dict[str, bytes]]] = []
        self.ops: List[tuple] = []
        self.subjects_n = max(1, base.records // base.per_subject)
        self._subject_of: Dict[str, str] = {}
        self.keys_of: Dict[str, List[str]] = {}

    # Streams are derived from one root RNG the way WorkloadRunner does it.
    def _streams(self):
        root = random.Random(self.seed)
        fields = FieldGenerator(FIELD_COUNT, FIELD_LENGTH, seed=self.seed)
        return root, fields

    def subject_of(self, key: str) -> str:
        return self._subject_of[key]

    def _generate_records(self, fields: FieldGenerator, timer) -> None:
        self.records = []

        def work(start: int, stop: int) -> None:
            for keynum in range(start, stop):
                key = build_key_name(keynum)
                self.records.append((key, fields.build_values()))
                subject = f"subject-{keynum % self.subjects_n}"
                self._subject_of[key] = subject
                self.keys_of.setdefault(subject, []).append(key)

        self._subject_of = {}
        self.keys_of = {}
        sliced(timer, "gen", self.records_n, GEN_RECORD_SLICE, work)

    def _ycsb_a_stream(self, root: random.Random):
        """YCSB-A's key chooser and op mix on their own RNG streams."""
        chooser = ScrambledZipfianGenerator(
            0, self.records_n - 1,
            rng=random.Random(root.randrange(1 << 30)))
        mix = DiscreteGenerator([(READ, 0.5), (UPDATE, 0.5)],
                                rng=random.Random(root.randrange(1 << 30)))
        return chooser, mix

    def generate(self, timer) -> None:
        raise NotImplementedError

    def make_stack(self) -> stacks.Stack:
        raise NotImplementedError

    def make_baseline(self) -> stacks.Stack:
        raise NotImplementedError

    def build(self, timer, baseline: bool = False) -> stacks.Stack:
        """The (baseline) stack, loaded with the record set."""
        stack = timer.measure(
            "build", self.make_baseline if baseline else self.make_stack)
        adapter = stack.adapter

        def work(start: int, stop: int) -> None:
            for key, values in self.records[start:stop]:
                adapter.insert(key, values)

        sliced(timer, "load", len(self.records), LOAD_SLICE, work)
        return stack


class _RightsMixin:
    """Op-stream generation shared by the workloads that erase subjects:
    the stream never addresses a key after its subject's erasure, so any
    miss the run sees is a correctness failure."""

    def _rights_state(self, root: random.Random):
        self._live_subjects = sorted(self.keys_of)
        self._erased = set()
        self._rights_rng = random.Random(root.randrange(1 << 30))
        self._rights_cycle = 0

    def _next_rights_op(self) -> tuple:
        kind = (ACCESS, EXPORT, ERASE)[self._rights_cycle % 3]
        self._rights_cycle += 1
        return self._subject_op(kind)

    def _subject_op(self, kind: str) -> tuple:
        index = self._rights_rng.randrange(len(self._live_subjects))
        subject = self._live_subjects[index]
        if kind == ERASE:
            self._live_subjects[index] = self._live_subjects[-1]
            self._live_subjects.pop()
            self._erased.add(subject)
        return (kind, subject)


# -- strict_kv -----------------------------------------------------------------


class StrictKV(Workload):
    name = "strict_kv"
    why = ("the paper's headline: YCSB-A on redislike under strict real-time "
           "GDPR; audit fsync and envelope crypto do nearly all the work, "
           "data fits the hot tier")
    size = Size(records=1600, ops=22000)
    smoke_size = Size(records=60, ops=160)

    def generate(self, timer) -> None:
        root, fields = self._streams()
        self._generate_records(fields, timer)
        chooser, mix = self._ycsb_a_stream(root)
        keys = [key for key, _ in self.records]
        self.ops = []

        def work(start: int, stop: int) -> None:
            for _ in range(start, stop):
                key = keys[chooser.next_value()]
                if mix.next_value() == READ:
                    self.ops.append((READ, key))
                else:
                    self.ops.append((UPDATE, key, fields.build_update()))

        sliced(timer, "gen", self.ops_n, GEN_OP_SLICE, work)

    make_stack = staticmethod(stacks.strict_kv)
    make_baseline = staticmethod(stacks.strict_kv_baseline)

    def expected_audit_records(self, run: "ClosedLoopRun") -> int:
        # load: one put per record; read: one get; update: get + put.
        return (len(self.records) + run.counts[READ]
                + 2 * run.counts[UPDATE])


# -- fast_sql_rights -----------------------------------------------------------


class FastSqlRights(_RightsMixin, Workload):
    name = "fast_sql_rights"
    why = ("relational engine under fast-GDPR with a rights request every 40 "
           "ops: rights force the write-behind flush and scan the owner "
           "index, so deferred put-side work shows as write gain and rights "
           "cost")
    size = Size(records=1000, ops=12000, per_subject=4, rights_every=40)
    smoke_size = Size(records=60, ops=180, per_subject=4, rights_every=20)
    run_slice = 360         # three rights cycles: every slice is alike

    def generate(self, timer) -> None:
        root, fields = self._streams()
        self._generate_records(fields, timer)
        chooser, mix = self._ycsb_a_stream(root)
        self._rights_state(root)
        keys = [key for key, _ in self.records]
        every = self.base.rights_every
        self.ops = []

        def work(start: int, stop: int) -> None:
            for position in range(start, stop):
                if (position + 1) % every == 0:
                    self.ops.append(self._next_rights_op())
                    continue
                key = keys[chooser.next_value()]
                while self._subject_of[key] in self._erased:
                    key = keys[chooser.next_value()]
                if mix.next_value() == READ:
                    self.ops.append((READ, key))
                else:
                    self.ops.append((UPDATE, key, fields.build_update()))

        sliced(timer, "gen", self.ops_n, GEN_OP_SLICE, work)

    def make_stack(self) -> stacks.Stack:
        return stacks.fast_sql_rights(self.subject_of)

    make_baseline = staticmethod(stacks.fast_sql_rights_baseline)

    def expected_audit_records(self, run: "ClosedLoopRun") -> int:
        # Each access/export reads every key of the subject and appends
        # its own record; an erasure appends one.
        return (len(self.records) + run.counts[READ]
                + 2 * run.counts[UPDATE] + run.rights_key_reads
                + run.counts[ACCESS] + run.counts[EXPORT]
                + run.counts[ERASE])


# -- tiered_cold ---------------------------------------------------------------

HOT_FRACTION = 0.25
IDLE_GAP = 45.0             # simulated seconds between access windows


class TieredCold(_RightsMixin, Workload):
    name = "tiered_cold"
    why = ("working set larger than the hot tier: 20% of reads fault demoted "
           "records back in and Art. 17 must reach sealed cold segments, so "
           "tiering.segment sets the read tail and the erase path")
    size = Size(records=1600, ops=8000, per_subject=4, rights_every=80,
                windows=8)
    smoke_size = Size(records=80, ops=240, per_subject=4, rights_every=30,
                      windows=3)

    def generate(self, timer) -> None:
        root, fields = self._streams()
        self._generate_records(fields, timer)
        rng = random.Random(root.randrange(1 << 30))
        self._rights_state(root)
        keys = [key for key, _ in self.records]
        hot_n = max(1, int(round(self.records_n * HOT_FRACTION)))
        # Subjects own keynums congruent modulo subjects_n, so with
        # per_subject = 1 / HOT_FRACTION each has one hot key and the
        # rest cold: every erasure spans both tiers.
        self.hot_keys = keys[:hot_n]
        hot = list(self.hot_keys)
        cold = keys[hot_n:]
        every = self.base.rights_every
        window_ops = max(1, self.ops_n // self.base.windows)
        self.ops = []

        def draw(pool: List[str]) -> str:
            while True:
                index = rng.randrange(len(pool))
                key = pool[index]
                if self._subject_of[key] not in self._erased:
                    return key
                pool[index] = pool[-1]      # drop erased keys lazily
                pool.pop()

        def work(start: int, stop: int) -> None:
            for position in range(start, stop):
                if (position + 1) % every == 0:
                    self.ops.append(self._subject_op(ERASE))
                elif rng.random() < 0.2:
                    self.ops.append((READ, draw(cold)))
                elif rng.random() < 0.5:
                    self.ops.append((READ, draw(hot)))
                else:
                    self.ops.append((UPDATE, draw(hot),
                                     fields.build_update()))
                if (position + 1) % window_ops == 0:
                    self.ops.append((IDLE, IDLE_GAP))

        sliced(timer, "gen", self.ops_n, GEN_OP_SLICE, work)

    def make_stack(self) -> stacks.Stack:
        return stacks.tiered_cold(self.subject_of)

    def make_baseline(self) -> stacks.Stack:
        return stacks.tiered_cold_baseline(self.subject_of)

    def build(self, timer, baseline: bool = False) -> stacks.Stack:
        stack = super().build(timer, baseline)
        timer.measure("load", lambda: self._settle(stack))
        return stack

    def _settle(self, stack: stacks.Stack) -> None:
        """Leave only the hot set resident: let everything idle, touch the
        hot keys, idle again, run the demotion scan."""
        stack.clock.advance(IDLE_GAP)
        for key in self.hot_keys:
            stack.adapter.read(key)
        stack.clock.advance(IDLE_GAP)
        stack.store.tick()

    def expected_audit_records(self, run: "ClosedLoopRun") -> int:
        # Set-up touches every hot key once; tier events (one per sealed
        # segment, promotion and cold erasure) are chained too.
        engine = run.stack.engine
        tier_events = (engine.cold.seals + engine.promotions
                       + run.counts[ERASE])
        return (len(self.records) + len(self.hot_keys) + run.counts[READ]
                + 2 * run.counts[UPDATE] + run.counts[ERASE] + tier_events)


# -- the closed-loop driver ----------------------------------------------------


class ClosedLoopRun:
    """One client, one op outstanding: executes an op list against a stack,
    recording simulated latency per op kind and checking every output."""

    def __init__(self, stack: stacks.Stack, workload: Workload,
                 tracer=None) -> None:
        self.stack = stack
        self.workload = workload
        self.tracer = tracer
        self.shadow: Dict[str, Dict[str, bytes]] = {
            key: dict(values) for key, values in workload.records}
        self.latency: Dict[str, List[float]] = {
            kind: [] for kind in (READ, UPDATE, ACCESS, EXPORT, ERASE)}
        self.counts: Dict[str, int] = {kind: 0 for kind in self.latency}
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.busy_seconds = 0.0         # simulated: op latencies + ticks
        self.user_bytes_written = 0
        self.rights_key_reads = 0
        self.erased: List[Tuple[str, List[str]]] = []
        self.device_bytes_at_start = stack.device_bytes()
        self.device_fsyncs_at_start = stack.device_fsyncs()
        self.device_syscalls_at_start = stack.device_syscalls()

    def execute(self, ops: Sequence[tuple], start: int, stop: int) -> None:
        clock = self.stack.clock
        adapter = self.stack.adapter
        shadow = self.shadow
        latency = self.latency
        tracer = self.tracer
        for position in range(start, stop):
            op = ops[position]
            kind = op[0]
            if tracer is not None:
                tracer.op = position
            if kind == IDLE:
                self._idle(op[1])
                continue
            self.attempted += 1
            began = clock.now()
            try:
                if kind == READ:
                    got = adapter.read(op[1])
                    elapsed = clock.now() - began
                    if got != shadow[op[1]]:
                        self.mismatches.append(
                            f"op {position}: read of {op[1]} does not "
                            "return the last value written")
                elif kind == UPDATE:
                    adapter.update(op[1], op[2])
                    elapsed = clock.now() - began
                    shadow[op[1]].update(op[2])
                    self.user_bytes_written += sum(
                        len(payload) for payload in op[2].values())
                else:
                    elapsed = self._rights(kind, op[1], began)
            except (KeyError, StoreError, RespError) as exc:
                self.failed += 1
                self.mismatches.append(f"op {position} {kind} failed: "
                                       f"{type(exc).__name__}: {exc}")
                continue
            latency[kind].append(elapsed)
            self.counts[kind] += 1
            self.busy_seconds += elapsed

    def _idle(self, seconds: float) -> None:
        clock = self.stack.clock
        tracer = self.tracer
        if tracer is not None:      # the gap itself is nobody's charge
            tracer.on = False
        clock.advance(seconds)
        if tracer is not None:
            tracer.on = True
        began = clock.now()
        self.stack.store.tick()
        self.busy_seconds += clock.now() - began

    def _rights(self, kind: str, subject: str, began: float) -> float:
        store = self.stack.store
        clock = self.stack.clock
        keys = self.workload.keys_of[subject]
        if kind == ACCESS:
            report = rights.right_of_access(store, subject)
            elapsed = clock.now() - began
            self.rights_key_reads += len(keys)
            if sorted(row["key"] for row in report.records) != sorted(keys):
                self.mismatches.append(
                    f"Art. 15 report for {subject} lists the wrong keys")
            return elapsed
        if kind == EXPORT:
            blob = rights.right_to_portability(store, subject)
            elapsed = clock.now() - began
            self.rights_key_reads += len(keys)
            if len(json.loads(blob)["records"]) != len(keys):
                self.mismatches.append(
                    f"Art. 20 export for {subject} has the wrong size")
            return elapsed
        receipt = rights.right_to_erasure(store, subject)
        elapsed = clock.now() - began
        self._check_erased(subject, keys, receipt)
        for key in keys:
            del self.shadow[key]
        self.erased.append((subject, keys))
        return elapsed

    def _check_erased(self, subject: str, keys: List[str], receipt) -> None:
        """After Art. 17 the subject is gone and its keys unreadable --
        checked through non-mutating views so the run is not perturbed."""
        store = self.stack.store
        engine = self.stack.engine
        problems = []
        if sorted(receipt.keys_erased) != sorted(keys):
            problems.append("receipt lists the wrong keys")
        if not receipt.crypto_erased or subject in store.keystore:
            problems.append("data key survives")
        if store.index.keys_of_owner(subject):
            problems.append("owner index still lists keys")
        for key in keys:
            if engine.has_live_key(key.encode("utf-8")):
                problems.append(f"{key} still live")
        if getattr(engine, "supports_tiering", False):
            if engine.cold_keys_of_subject(subject):
                problems.append("cold copies still readable")
            if receipt.cold_segments_voided < 1:
                problems.append("no cold segment voided")
        for problem in problems:
            self.mismatches.append(f"Art. 17 of {subject}: {problem}")

    # -- end-of-run checks (after the metrics are taken) -------------------

    def verify(self) -> None:
        """Raise :class:`CheckFailure` unless every output check held."""
        problems = list(self.mismatches)
        store = self.stack.store
        if store is not None:
            store.flush_compliance()
            verified = store.audit.verify()
            expected = self.workload.expected_audit_records(self)
            if verified != expected or store.audit.record_count != expected:
                problems.append(
                    f"audit chain verifies {verified} of "
                    f"{store.audit.record_count} records, expected "
                    f"{expected}")
        adapter = self.stack.adapter
        rng = random.Random(self.workload.seed)
        live = sorted(self.shadow)
        for key in rng.sample(live, min(100, len(live))):
            if adapter.read(key) != self.shadow[key]:
                problems.append(f"final sweep: {key} is stale")
        for subject, keys in self.erased[-25:]:
            for key in keys:
                try:
                    adapter.read(key)
                except KeyError:
                    continue
                problems.append(f"final sweep: erased {key} is readable")
        if problems:
            raise CheckFailure("; ".join(problems[:5])
                               + (f" (+{len(problems) - 5} more)"
                                  if len(problems) > 5 else ""))

    # -- what the metric code reads ----------------------------------------

    def device_bytes(self) -> int:
        return self.stack.device_bytes() - self.device_bytes_at_start

    def device_fsyncs(self) -> int:
        return self.stack.device_fsyncs() - self.device_fsyncs_at_start

    def device_syscalls(self) -> int:
        return self.stack.device_syscalls() - self.device_syscalls_at_start

    def hot_bytes(self) -> int:
        engine = self.stack.engine
        if getattr(engine, "supports_tiering", False):
            return engine.memory_footprint()["hot_bytes"]
        return resident_bytes(engine)

    def live_user_bytes(self) -> int:
        return len(self.shadow) * RECORD_BYTES


def resident_bytes(engine) -> int:
    """Key + value bytes resident in an engine's keyspace."""
    total = 0
    for record in engine.scan_records(0):
        total += len(record.key)
        if isinstance(record.value, bytes):
            total += len(record.value)
        elif isinstance(record.value, dict):
            total += sum(len(name) + len(payload)
                         for name, payload in record.value.items())
    return total


def run_closed_loop(workload: Workload, stack: stacks.Stack, timer,
                    ops: Optional[Sequence[tuple]] = None,
                    tracer=None) -> ClosedLoopRun:
    ops = workload.ops if ops is None else ops
    run = ClosedLoopRun(stack, workload, tracer=tracer)
    if tracer is not None:
        tracer.attach_clock(stack.clock)
    sliced(timer, "run", len(ops), workload.run_slice,
           lambda start, stop: run.execute(ops, start, stop))
    return run


def run_baseline(workload: Workload) -> float:
    """Simulated ops/s of the identical stream on the non-compliant
    baseline stack (rights requests are skipped where the baseline has no
    GDPR layer to serve them)."""
    stack = workload.build(NullTimer(), baseline=True)
    ops = workload.ops
    if stack.store is None:
        ops = [op for op in ops if op[0] in (READ, UPDATE)]
    run = run_closed_loop(workload, stack, NullTimer(), ops=ops)
    if run.mismatches:
        raise CheckFailure("baseline: " + "; ".join(run.mismatches[:3]))
    return run.attempted / run.busy_seconds


# -- openloop_cores ------------------------------------------------------------

CLIENTS = 16
# Offered steps (ops/s), fixed.  Measured over seeds, p99 latency of the
# AOF-logged 2x2 cluster crosses 1 ms between 18k and 20k and completions
# level off near 26k, so three steps sit safely below the knee, one safely
# above it, and the last is far past saturation of the *unlogged* baseline
# too (its completions/s is capacity, and the slowdown a capacity ratio).
# Latencies are taken at RATES[LAT_STEP].
RATES = (8_000.0, 12_000.0, 16_000.0, 24_000.0, 200_000.0)
LAT_STEP = 1
KNEE_P99_LIMIT = 1e-3


class ScriptedOpenLoop(OpenLoopRunner):
    """``OpenLoopRunner`` fed from a pregenerated op list, keeping exact
    per-kind latencies (from scheduled arrival) and the backlog left when
    admission ends."""

    def __init__(self, cluster: stacks.Cluster, script: Sequence[tuple],
                 records, rate: float, seed: int) -> None:
        spec = WORKLOAD_B.scaled(record_count=len(records),
                                 operation_count=len(script))
        super().__init__(cluster.client, spec, clients=CLIENTS,
                         arrival_rate=rate, seed=seed)
        self.stack = cluster
        self._script = iter(script)
        self._records = records
        self.read_latency: List[float] = []
        self.write_latency: List[float] = []
        self.completed = 0
        self.backlog_at_close = 0

    def preload(self) -> int:
        for key, value in self._records:
            shard = self.cluster.slots.shard_for_key(key)
            self.cluster.nodes[shard].store.execute("SET", key, value)
        self.cluster.sync()
        return len(self._records)

    def _make_op(self) -> _Op:
        kind, key, value = next(self._script)
        if kind == READ:
            return _Op(READ, [["GET", key]])
        return _Op(UPDATE, [["SET", key, value]])

    def _arrive(self) -> None:
        super()._arrive()
        if self._report.admitted == self._to_admit:
            self.backlog_at_close = len(self._backlog)

    def _complete(self, client, op) -> None:
        super()._complete(client, op)
        self.completed += 1
        (self.read_latency if op.kind == READ
         else self.write_latency).append(op.finish - op.arrival)


@dataclass
class StepResult:
    report: object
    runner: ScriptedOpenLoop
    cluster: stacks.Cluster
    latencies: List[float]      # every op, reads and writes
    device_bytes: int
    device_fsyncs: int
    device_syscalls: int

    @property
    def rate(self) -> float:
        return self.runner.arrival_rate

    @property
    def failed(self) -> int:
        report = self.report
        return (report.failures + report.throttled
                + report.admitted - report.completed)

    def below_knee(self) -> bool:
        return (percentile(self.latencies, 99) <= KNEE_P99_LIMIT
                and self.runner.backlog_at_close == 0)


class OpenLoopCores(Workload):
    name = "openloop_cores"
    why = ("open-loop Poisson arrivals on the event-driven 2x2 cluster with "
           "no GDPR layer: the no-change control for GDPR work and the place "
           "event-core, wire and RESP speedups must show")
    closed_loop = False
    size = Size(records=1000, ops=6000, lat_ops=40000)
    smoke_size = Size(records=60, ops=120, lat_ops=240)

    def __init__(self, seed: int, seconds: float = 10.0,
                 smoke: bool = False) -> None:
        super().__init__(seed, seconds, smoke)
        self.lat_ops_n = max(1, int(round(self.base.lat_ops * self.scale)))
        self.scripts: List[List[tuple]] = []
        self.packed: List[Tuple[str, bytes]] = []

    def step_ops(self, step: int) -> int:
        return self.lat_ops_n if step == LAT_STEP else self.ops_n

    def generate(self, timer) -> None:
        root, fields = self._streams()
        self._generate_records(fields, timer)
        self.packed = [(key, pack_fields(values))
                       for key, values in self.records]
        keys = [key for key, _ in self.records]
        self.scripts = []
        for step in range(len(RATES)):
            chooser = ScrambledZipfianGenerator(
                0, self.records_n - 1,
                rng=random.Random(root.randrange(1 << 30)))
            mix = DiscreteGenerator(
                [(READ, 0.95), (UPDATE, 0.05)],
                rng=random.Random(root.randrange(1 << 30)))
            script: List[tuple] = []

            def work(start: int, stop: int) -> None:
                for _ in range(start, stop):
                    key = keys[chooser.next_value()]
                    if mix.next_value() == READ:
                        script.append((READ, key, None))
                    else:
                        script.append((UPDATE, key, pack_fields(
                            fields.build_values())))

            sliced(timer, "gen", self.step_ops(step), GEN_OP_SLICE, work)
            self.scripts.append(script)

    def _runner(self, step: int, logged: bool,
                fraction: float = 1.0) -> ScriptedOpenLoop:
        script = self.scripts[step]
        script = script[:max(1, int(len(script) * fraction))]
        runner = ScriptedOpenLoop(stacks.openloop_cores(logged=logged),
                                  script, self.packed, RATES[step],
                                  seed=self.seed + step)
        runner.preload()
        return runner

    def build(self, timer, fraction: float = 1.0) -> List[ScriptedOpenLoop]:
        """A fresh, preloaded cluster per offered step (``fraction`` of
        each step's script, for the traced pass)."""
        return [timer.measure(
                    "load", lambda s=step: self._runner(s, True, fraction),
                    units=self.records_n)
                for step in range(len(RATES))]

    def build_baseline(self) -> ScriptedOpenLoop:
        return self._runner(len(RATES) - 1, logged=False)


def run_step(runner: ScriptedOpenLoop, timer, tracer=None) -> StepResult:
    """Admit one step's script and drive the scheduler until it drains, in
    slices of a fixed number of completions."""
    cluster: stacks.Cluster = runner.stack
    clock = cluster.clock
    total = runner.spec.operation_count
    bytes0, fsyncs0, syscalls0 = (cluster.device_bytes(),
                                  cluster.device_fsyncs(),
                                  cluster.device_syscalls())
    if tracer is not None:
        tracer.attach_clock(clock)
    runner.begin(total)

    def drive(start: int, stop: int) -> None:
        while runner.completed < stop and clock.pending_live_events():
            clock.run_next()

    sliced(timer, "run", total, EVENT_SLICE, drive)
    clock.run_until_idle()
    report = runner.finish()
    return StepResult(report, runner, cluster,
                      runner.read_latency + runner.write_latency,
                      cluster.device_bytes() - bytes0,
                      cluster.device_fsyncs() - fsyncs0,
                      cluster.device_syscalls() - syscalls0)


def verify_step(workload: OpenLoopCores, step: int,
                result: StepResult) -> None:
    report = result.report
    script = workload.scripts[step][:result.runner.spec.operation_count]
    problems = []
    if report.completed != report.admitted \
            or report.admitted != len(script):
        problems.append(f"completed {report.completed} of "
                        f"{report.admitted} admitted")
    if result.failed:
        problems.append(f"{report.failures} failed, "
                        f"{report.throttled} throttled")
    # Final state: every key holds its preloaded value or one the script
    # wrote to it (concurrent clients may reorder writes to one key).
    allowed: Dict[str, set] = {key: {value}
                               for key, value in workload.packed}
    for kind, key, value in script:
        if kind == UPDATE:
            allowed[key].add(value)
    client = result.cluster.client
    for key, values in allowed.items():
        shard = client.slots.shard_for_key(key)
        if client.nodes[shard].store.execute("GET", key) not in values:
            problems.append(f"{key} holds a value nobody wrote")
    if problems:
        raise CheckFailure(f"step {result.rate:.0f}/s: "
                           + "; ".join(problems[:5]))


WORKLOADS = {cls.name: cls for cls in
             (StrictKV, FastSqlRights, OpenLoopCores, TieredCold)}
