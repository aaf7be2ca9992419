"""YCSB: workload definitions, generators, adapters, and the runner."""

from .adapters import (
    GDPRAdapter,
    KVAdapter,
    SqlAdapter,
    StorageAdapter,
    pack_fields,
    unpack_fields,
)
from .distributions import (
    CounterGenerator,
    DiscreteGenerator,
    ScrambledZipfianGenerator,
    SkewedLatestGenerator,
    UniformGenerator,
    ZipfianGenerator,
    zeta,
)
from .generator import FieldGenerator, build_key_name
from .openloop import (
    ArrivalProcess,
    OpenLoopReport,
    OpenLoopRunner,
)
from .runner import RunReport, WorkloadRunner
from .workloads import (
    CORE_WORKLOADS,
    FIGURE1_PHASES,
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    WORKLOAD_D,
    WORKLOAD_E,
    WORKLOAD_F,
    WorkloadSpec,
)

__all__ = [
    "StorageAdapter",
    "KVAdapter",
    "SqlAdapter",
    "GDPRAdapter",
    "pack_fields",
    "unpack_fields",
    "CounterGenerator",
    "DiscreteGenerator",
    "UniformGenerator",
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "SkewedLatestGenerator",
    "zeta",
    "FieldGenerator",
    "build_key_name",
    "WorkloadSpec",
    "CORE_WORKLOADS",
    "FIGURE1_PHASES",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WORKLOAD_D",
    "WORKLOAD_E",
    "WORKLOAD_F",
    "RunReport",
    "WorkloadRunner",
    "ArrivalProcess",
    "OpenLoopReport",
    "OpenLoopRunner",
]
