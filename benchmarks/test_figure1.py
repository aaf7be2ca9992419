"""Figure 1: GDPR-compliant Redis throughput across YCSB phases.

Paper: unmodified ~20-25 kops/s; "AOF w/ sync" (everysec, all ops logged)
and "LUKS + TLS" each at ~30% of baseline, across Load-A, A, B, C, D,
Load-E, E, F.
"""

import pytest
from conftest import OPERATIONS, RECORDS, write_result

from repro.bench.figure1 import FIGURE1_CONFIGS, figure1_table, run_config


@pytest.fixture(scope="session")
def figure1():
    """``figure1(config)`` -> that configuration's cells.  The figure is
    run once per session: each configuration under whichever test asks
    for it first (so that test's timing is the configuration's), and
    every test asserts on the one shared result."""
    results = {}

    def cells_of(config):
        if config not in results:
            results[config] = run_config(config, RECORDS, OPERATIONS)
        return results[config]

    return cells_of


def test_figure1_unmodified_baseline(benchmark, figure1):
    cells = benchmark.pedantic(lambda: figure1("unmodified"),
                               rounds=1, iterations=1)
    by_phase = {cell.phase: cell.throughput for cell in cells}
    benchmark.extra_info.update(
        {phase: round(tp, 1) for phase, tp in by_phase.items()})
    # The paper's testbed baseline: ~20-25 kops/s on simple phases.
    for phase in ("Load-A", "A", "B", "C", "D"):
        assert 10_000 <= by_phase[phase] <= 30_000, phase
    # F's read-modify-write issues two round trips per op.
    assert 8_000 <= by_phase["F"] <= by_phase["A"]
    # Scans read up to 100 records per op: far lower throughput.
    assert by_phase["E"] < by_phase["A"] / 5


def test_figure1_aof_everysec(benchmark, figure1):
    cells = benchmark.pedantic(lambda: figure1("aof-everysec"),
                               rounds=1, iterations=1)
    benchmark.extra_info.update(
        {cell.phase: round(cell.throughput, 1) for cell in cells})


def test_figure1_luks_tls(benchmark, figure1):
    cells = benchmark.pedantic(lambda: figure1("luks+tls"),
                               rounds=1, iterations=1)
    benchmark.extra_info.update(
        {cell.phase: round(cell.throughput, 1) for cell in cells})


def test_figure1_shape_matches_paper(benchmark, results_dir, figure1):
    """The figure's headline shape: both modified configurations land
    near 30% of baseline on every phase."""
    results = benchmark.pedantic(
        lambda: {config: figure1(config) for config in FIGURE1_CONFIGS},
        rounds=1, iterations=1)
    table = figure1_table(results)
    write_result(results_dir, "figure1.txt", table)
    phases = [cell.phase for cell in results["unmodified"]]
    for index, phase in enumerate(phases):
        base = results["unmodified"][index].throughput
        aof = results["aof-everysec"][index].throughput
        tls = results["luks+tls"][index].throughput
        # Paper: ~30% of original for each.  Accept a generous band --
        # phase E (scans) dilutes per-op overheads for AOF.
        assert 0.15 <= aof / base <= 0.65, (phase, aof / base)
        assert 0.15 <= tls / base <= 0.55, (phase, tls / base)
    benchmark.extra_info["table"] = table
