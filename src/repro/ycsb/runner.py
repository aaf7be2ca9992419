"""The YCSB client loop: load and run phases, latency and throughput.

The runner is closed-loop, like one YCSB thread: it issues the next
operation when the previous one completes.  Latency is read from the
store's clock, so under a :class:`~repro.common.clock.SimClock` the
reported throughput is *simulated* throughput -- deterministic and
host-independent (see docs/architecture.md, "Execution model").  The
open-loop counterpart (admission at a configured arrival rate, queueing
delay measured apart from service time) lives in
:mod:`repro.ycsb.openloop`.

Nothing here touches wall time: every random stream is derived from one
explicit seeded RNG and all timestamps come from the injected clock, so
two runs with the same seed are byte-for-byte identical under a
:class:`~repro.common.clock.SimClock`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..common.clock import Clock
from ..common.histogram import LatencyHistogram
from .adapters import StorageAdapter
from .distributions import (
    CounterGenerator,
    DiscreteGenerator,
    NumberGenerator,
    ScrambledZipfianGenerator,
    SkewedLatestGenerator,
    UniformGenerator,
)
from .generator import FieldGenerator, build_key_name
from .workloads import WorkloadSpec


def make_chooser(spec: WorkloadSpec, insert_counter: CounterGenerator,
                 rng: random.Random) -> NumberGenerator:
    """The key chooser a workload spec calls for, on an explicit RNG.

    Shared by the closed-loop runner and the open-loop driver so the
    request-distribution wiring cannot drift between the two.
    """
    dist = spec.request_distribution
    if dist == "uniform":
        return UniformGenerator(0, spec.record_count - 1, rng=rng)
    if dist == "latest":
        return SkewedLatestGenerator(insert_counter, rng=rng)
    return ScrambledZipfianGenerator(0, spec.record_count - 1, rng=rng)


@dataclass
class RunReport:
    """What YCSB prints per phase: overall + per-operation summaries."""

    phase: str
    operations: int
    sim_elapsed: float
    histograms: Dict[str, LatencyHistogram] = field(default_factory=dict)
    failures: int = 0

    @property
    def throughput(self) -> float:
        """Operations per simulated second."""
        if self.sim_elapsed <= 0:
            return 0.0
        return self.operations / self.sim_elapsed

    def summary(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "operations": self.operations,
            "throughput_ops_per_s": round(self.throughput, 1),
            "sim_elapsed_s": self.sim_elapsed,
            "ops": {op: hist.summary()
                    for op, hist in self.histograms.items()},
            "failures": self.failures,
        }


class WorkloadRunner:
    """Executes one workload spec against one adapter."""

    def __init__(self, adapter: StorageAdapter, spec: WorkloadSpec,
                 clock: Clock, seed: int = 42,
                 insert_counter: Optional[CounterGenerator] = None) -> None:
        self.adapter = adapter
        self.spec = spec
        self.clock = clock
        # One root RNG; every stream (field payloads, key chooser, op
        # mix, scan lengths) is derived from it, so a single seed pins
        # the whole run.
        self._rng = random.Random(seed)
        self.fields = FieldGenerator(spec.field_count, spec.field_length,
                                     seed=seed)
        # Key ids [0, insert_counter) exist; transactional inserts extend
        # it.  Pass a prior runner's counter to chain run phases over one
        # loaded dataset (the Figure 1 sequence).
        self.insert_counter = (insert_counter if insert_counter is not None
                               else CounterGenerator(spec.record_count))
        self._chooser = self._make_chooser()
        self._op_mix = DiscreteGenerator(
            list(spec.operation_mix()),
            rng=random.Random(self._rng.randrange(1 << 30)))
        self._scan_length = UniformGenerator(
            1, spec.max_scan_length,
            rng=random.Random(self._rng.randrange(1 << 30)))

    def _make_chooser(self) -> NumberGenerator:
        return make_chooser(self.spec, self.insert_counter,
                            random.Random(self._rng.randrange(1 << 30)))

    def _next_existing_key(self) -> str:
        keynum = self._chooser.next_value()
        # Guard against choosers referencing not-yet-inserted ids.
        keynum = min(keynum, self.insert_counter.last_value())
        return build_key_name(max(keynum, 0))

    # -- phases -----------------------------------------------------------------

    def load(self) -> RunReport:
        """Insert ``record_count`` records (the Load-* bars of Figure 1)."""
        sim_start = self.clock.now()
        hist = LatencyHistogram()
        for keynum in range(self.spec.record_count):
            began = self.clock.now()
            self.adapter.insert(build_key_name(keynum),
                                self.fields.build_values())
            hist.record(self.clock.now() - began)
        self.adapter.flush()
        return RunReport(
            phase=f"Load-{self.spec.name}",
            operations=self.spec.record_count,
            sim_elapsed=self.clock.now() - sim_start,
            histograms={"insert": hist})

    def run(self, operation_count: Optional[int] = None) -> RunReport:
        """Execute the transaction phase."""
        total = (operation_count if operation_count is not None
                 else self.spec.operation_count)
        sim_start = self.clock.now()
        histograms: Dict[str, LatencyHistogram] = {}
        failures = 0
        for _ in range(total):
            op = self._op_mix.next_value()
            began = self.clock.now()
            try:
                self._execute(op)
            except KeyError:
                failures += 1
            hist = histograms.get(op)
            if hist is None:
                hist = histograms[op] = LatencyHistogram()
            hist.record(self.clock.now() - began)
        self.adapter.flush()
        return RunReport(
            phase=self.spec.name, operations=total,
            sim_elapsed=self.clock.now() - sim_start,
            histograms=histograms, failures=failures)

    def _execute(self, op: str) -> None:
        if op == "read":
            fields = None if self.spec.read_all_fields \
                else [self.fields.random_field()]
            self.adapter.read(self._next_existing_key(), fields)
        elif op == "update":
            self.adapter.update(self._next_existing_key(),
                                self.fields.build_update())
        elif op == "insert":
            keynum = self.insert_counter.next_value()
            self.adapter.insert(build_key_name(keynum),
                                self.fields.build_values())
        elif op == "scan":
            self.adapter.scan(self._next_existing_key(),
                              self._scan_length.next_value())
        elif op == "rmw":
            key = self._next_existing_key()
            self.adapter.read(key)
            self.adapter.update(key, self.fields.build_update())
        else:
            raise ValueError(f"unknown operation {op!r}")
