"""The YCSB core workload definitions (A-F).

Property values match the reference ``workloads/workload[a-f]`` files:
records are 10 fields x 100 bytes; request distributions and operation
mixes are the published ones.  The paper runs "YCSB workloads ... with 2M
operations"; ``operation_count`` here is a default that the benchmark
harness scales (simulated-time throughput is scale-invariant well before
2M operations, see docs/benchmarks.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    read_proportion: float = 0.0
    update_proportion: float = 0.0
    insert_proportion: float = 0.0
    scan_proportion: float = 0.0
    read_modify_write_proportion: float = 0.0
    request_distribution: str = "zipfian"   # zipfian | latest | uniform
    record_count: int = 1000
    operation_count: int = 10_000
    field_count: int = 10
    field_length: int = 100
    max_scan_length: int = 100
    read_all_fields: bool = True

    def __post_init__(self) -> None:
        total = (self.read_proportion + self.update_proportion
                 + self.insert_proportion + self.scan_proportion
                 + self.read_modify_write_proportion)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"workload {self.name}: proportions sum to {total}, not 1")
        if self.request_distribution not in ("zipfian", "latest", "uniform"):
            raise ValueError(
                f"unknown request distribution "
                f"{self.request_distribution!r}")

    def operation_mix(self) -> Tuple[Tuple[str, float], ...]:
        return (
            ("read", self.read_proportion),
            ("update", self.update_proportion),
            ("insert", self.insert_proportion),
            ("scan", self.scan_proportion),
            ("rmw", self.read_modify_write_proportion),
        )

    def scaled(self, record_count: int = None,
               operation_count: int = None) -> "WorkloadSpec":
        """A copy with adjusted scale (benchmark harness knob)."""
        kwargs = {}
        if record_count is not None:
            kwargs["record_count"] = record_count
        if operation_count is not None:
            kwargs["operation_count"] = operation_count
        return replace(self, **kwargs)


WORKLOAD_A = WorkloadSpec(
    name="A", read_proportion=0.5, update_proportion=0.5)

WORKLOAD_B = WorkloadSpec(
    name="B", read_proportion=0.95, update_proportion=0.05)

WORKLOAD_C = WorkloadSpec(
    name="C", read_proportion=1.0)

WORKLOAD_D = WorkloadSpec(
    name="D", read_proportion=0.95, insert_proportion=0.05,
    request_distribution="latest")

WORKLOAD_E = WorkloadSpec(
    name="E", scan_proportion=0.95, insert_proportion=0.05)

WORKLOAD_F = WorkloadSpec(
    name="F", read_proportion=0.5, read_modify_write_proportion=0.5)

CORE_WORKLOADS: Dict[str, WorkloadSpec] = {
    "A": WORKLOAD_A,
    "B": WORKLOAD_B,
    "C": WORKLOAD_C,
    "D": WORKLOAD_D,
    "E": WORKLOAD_E,
    "F": WORKLOAD_F,
}

# Figure 1's x axis, in order: the two load phases plus the runs.
FIGURE1_PHASES = ("Load-A", "A", "B", "C", "D", "Load-E", "E", "F")
