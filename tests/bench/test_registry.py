"""The artifact registry: what ``bench_results/`` commits is what
``python -m repro.bench`` prints.

``ARTIFACTS`` composes every committed file from the declarations its
experiment prints, so the three properties below are all a reader
needs to trust a file: it is listed, one experiment prints it, and a
re-run reproduces it byte for byte.
"""

import pathlib

import pytest

from repro.bench.__main__ import (
    ARTIFACTS,
    EXPERIMENTS,
    TableOf,
    compose,
    printed,
)

BENCH_RESULTS = pathlib.Path(__file__).resolve().parents[2] / "bench_results"


def declarations_of(pieces):
    """The declarations an artifact is composed of (literal lines
    dropped, a bare table counted as its scenario)."""
    return [piece.scenario if isinstance(piece, TableOf) else piece
            for piece in pieces if not isinstance(piece, str)]


def owners(pieces):
    """The experiments that print every declaration of an artifact."""
    return [name for name, declared in EXPERIMENTS.items()
            if all(any(declaration is candidate for candidate in declared)
                   for declaration in declarations_of(pieces))]


def test_every_committed_file_is_declared_and_nothing_else():
    assert set(ARTIFACTS) \
        == {path.name for path in BENCH_RESULTS.glob("*.txt")}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_experiment_prints_the_bodies_its_file_commits(name, smoke_stdout,
                                                       smoke_rows):
    """One experiment owns the file, and every body ``benchmarks/``
    would write at the smoke sizes appears verbatim in its stdout (a
    file's literal lines, such as concurrency_workers.txt's own short
    heading, are the file's)."""
    (experiment,) = owners(ARTIFACTS[name])
    for piece in ARTIFACTS[name]:
        if not isinstance(piece, str):
            assert compose([piece], smoke_rows) in smoke_stdout(experiment)


@pytest.mark.parametrize("experiment", sorted(
    set(EXPERIMENTS) - {"table1", "figure2"}))
def test_rerun_is_byte_identical(experiment, smoke_stdout, smoke_rows):
    """Simulated numbers depend on nothing but the seed: a second sweep
    of everything the experiment prints reproduces its stdout
    (``table1`` and ``figure2`` take no sizes; their committed files
    pin them)."""
    again = compose(printed(EXPERIMENTS[experiment]), smoke_rows)
    assert "\n" + again + "\n" == smoke_stdout(experiment)


def test_committed_tiering_table_says_the_cold_tier_frees_memory():
    """Read off the committed artifact: at ``hot_frac`` 0.25 everything
    the tiered store keeps resident -- hot bytes plus the archive's own
    index -- is at most half of what hot-only keeps (0.6x at 0.50).  Up
    to segment format v1 the archive kept its payload in RAM as well and
    these ratios were 1.08x and 1.06x."""
    lines = (BENCH_RESULTS / "tiering.txt").read_text().splitlines()
    header = [name.strip() for name in lines[0].split("  ") if name.strip()]
    resident = {}
    for line in lines[2:]:
        row = dict(zip(header, line.split()))
        resident[row["mode"], row["hot_frac"]] = \
            int(row["hot bytes"]) + int(row["cold ram"])
    for hot_frac, bound in (("0.25", 0.5), ("0.50", 0.6)):
        assert resident["tiered", hot_frac] \
            <= bound * resident["hot-only", hot_frac], hot_frac
