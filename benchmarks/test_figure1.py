"""Figure 1: GDPR-compliant Redis throughput across YCSB phases.

Paper: unmodified ~20-25 kops/s; "AOF w/ sync" (everysec, all ops logged)
and "LUKS + TLS" each at ~30% of baseline, across Load-A, A, B, C, D,
Load-E, E, F.
"""

from repro.bench.figure1 import FIGURE1


def _by_phase(rows, config):
    return {row["phase"]: row[config] for row in rows}


def test_figure1_unmodified_baseline(benchmark, rows_of):
    rows = benchmark.pedantic(lambda: rows_of(FIGURE1),
                              rounds=1, iterations=1)
    by_phase = _by_phase(rows, "unmodified")
    benchmark.extra_info.update(
        {phase: round(tp, 1) for phase, tp in by_phase.items()})
    # The paper's testbed baseline: ~20-25 kops/s on simple phases.
    for phase in ("Load-A", "A", "B", "C", "D"):
        assert 10_000 <= by_phase[phase] <= 30_000, phase
    # F's read-modify-write issues two round trips per op.
    assert 8_000 <= by_phase["F"] <= by_phase["A"]
    # Scans read up to 100 records per op: far lower throughput.
    assert by_phase["E"] < by_phase["A"] / 5


def test_figure1_aof_everysec(benchmark, rows_of):
    rows = benchmark.pedantic(lambda: rows_of(FIGURE1),
                              rounds=1, iterations=1)
    benchmark.extra_info.update(
        {phase: round(tp, 1)
         for phase, tp in _by_phase(rows, "aof-everysec").items()})


def test_figure1_luks_tls(benchmark, rows_of):
    rows = benchmark.pedantic(lambda: rows_of(FIGURE1),
                              rounds=1, iterations=1)
    benchmark.extra_info.update(
        {phase: round(tp, 1)
         for phase, tp in _by_phase(rows, "luks+tls").items()})


def test_figure1_shape_matches_paper(benchmark, rows_of, write_artifact):
    """The figure's headline shape: both modified configurations land
    near 30% of baseline on every phase."""
    rows = benchmark.pedantic(lambda: rows_of(FIGURE1),
                              rounds=1, iterations=1)
    benchmark.extra_info["table"] = write_artifact("figure1.txt")
    for row in rows:
        base = row["unmodified"]
        aof = row["aof-everysec"]
        tls = row["luks+tls"]
        # Paper: ~30% of original for each.  Accept a generous band --
        # phase E (scans) dilutes per-op overheads for AOF.
        assert 0.15 <= aof / base <= 0.65, (row["phase"], aof / base)
        assert 0.15 <= tls / base <= 0.55, (row["phase"], tls / base)
