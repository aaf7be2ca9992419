"""Figure 1: YCSB throughput under the three configurations.

Reproduces the paper's main performance figure: throughput across
Load-A, A, B, C, D, Load-E, E, F for *Unmodified*, *AOF w/ sync*
(``appendfsync everysec`` with read logging, the plotted configuration),
and *LUKS + TLS*.  The companion text claims -- fsync-always at ~5% of
baseline and the 6x recovery at everysec -- are
:data:`repro.bench.micro.MICRO_FSYNC`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ycsb.runner import WorkloadRunner
from ..ycsb.workloads import CORE_WORKLOADS
from .calibration import FIGURE1_CONFIGS, SystemUnderTest, make_figure1_system
from .reporting import Cell, Row, Scenario, scaled, ycsb_sizes

# The figure's x axis: (label, workload, phase) in plotted order.  A/B/C/D
# share the A dataset; E and F run on the E dataset, matching YCSB's
# recommended sequence and the figure's ordering.
PHASE_PLAN = (
    ("Load-A", "A", "load"),
    ("A", "A", "run"),
    ("B", "B", "run"),
    ("C", "C", "run"),
    ("D", "D", "run"),
    ("Load-E", "E", "load"),
    ("E", "E", "run"),
    ("F", "F", "run"),
)

# The A-D dataset group never scans, so (as with the YCSB Redis binding
# when scans are disabled) its adapter skips the sorted-set scan index --
# otherwise every insert would pay a second round trip that the paper's
# Load-A bar does not show.
_SCAN_GROUPS = {"E"}


def run_config(config: str, record_count: int = 1000,
               operation_count: int = 2000,
               seed: int = 42) -> Dict[str, float]:
    """Run all eight phases for one configuration (fresh store per
    dataset group, as YCSB reloads between A-D and E); ops per
    simulated second, by phase label."""
    throughputs: Dict[str, float] = {}
    system: Optional[SystemUnderTest] = None
    runner: Optional[WorkloadRunner] = None
    for label, workload_name, phase in PHASE_PLAN:
        spec = CORE_WORKLOADS[workload_name].scaled(
            record_count=record_count, operation_count=operation_count)
        if phase == "load":
            system = make_figure1_system(config, seed=seed)
            system.adapter.maintain_scan_index = \
                workload_name in _SCAN_GROUPS
            runner = WorkloadRunner(system.adapter, spec, system.clock,
                                    seed=seed)
            report = runner.load()
        else:
            assert system is not None and runner is not None
            # A fresh runner picks up this workload's mix and request
            # distribution while inheriting the loaded dataset's insert
            # counter (so D/E inserts extend, not overwrite).
            runner = WorkloadRunner(system.adapter, spec, system.clock,
                                    seed=seed,
                                    insert_counter=runner.insert_counter)
            report = runner.run(operation_count)
        throughputs[label] = report.throughput
    return throughputs


def run_figure(record_count: int, operation_count: int) -> List[Row]:
    """The figure as the table it plots: one row per phase, one
    throughput per configuration."""
    by_config = {config: run_config(config, record_count, operation_count)
                 for config in FIGURE1_CONFIGS}
    return [{"phase": label,
             **{config: by_config[config][label] for config in by_config}}
            for label, _, _ in PHASE_PLAN]


def _of_unmodified(config: str) -> Cell:
    return lambda row, _rows: (f"{row[config] / row['unmodified']:.2f}"
                               if row["unmodified"] > 0 else "-")


# The paper's claim is the two ratio columns: both modified
# configurations land near 30% of the unmodified store on every phase.
FIGURE1 = Scenario(
    title="Figure 1 -- YCSB throughput "
          "(unmodified / AOF w/ sync / LUKS+TLS)",
    axes=(),
    measure=run_figure,
    sizes=ycsb_sizes,
    columns=(("phase", "phase"),
             *((config, scaled(config)) for config in FIGURE1_CONFIGS),
             ("aof/unmod", _of_unmodified("aof-everysec")),
             ("tls/unmod", _of_unmodified("luks+tls"))),
)
