"""Shared benchmark fixtures.

Every ``bench_results/*.txt`` file is written here, from the
``ARTIFACTS`` table of ``python -m repro.bench``, at the CLI's default
sizes -- so a committed file is what its experiment prints, and a
change that moves a number shows up as a diff of that file (see
docs/benchmarks.md).  To look at another scale, run the CLI with
``--records`` / ``--ops`` / ``--full``.
"""

import pathlib

import pytest

from repro.bench.__main__ import (
    ARTIFACTS,
    DEFAULT_OPS,
    DEFAULT_RECORDS,
    compose,
)
from repro.bench.reporting import sweep

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent \
    / "bench_results"


@pytest.fixture(scope="session")
def rows_of():
    """``rows_of(SCENARIO)`` -> its rows at the default sizes.  Each
    scenario is swept once per session, under whichever test asks for
    it first (so that test's timing is the sweep's), and every test
    asserts on the one shared result."""
    swept = {}

    def rows(scenario):
        if id(scenario) not in swept:
            swept[id(scenario)] = sweep(scenario, DEFAULT_RECORDS,
                                        DEFAULT_OPS)
        return swept[id(scenario)]

    return rows


@pytest.fixture(scope="session")
def write_artifact(rows_of):
    """``write_artifact(name)`` composes ``bench_results/<name>`` from
    its declared pieces, writes it and returns the text."""
    def write(name):
        text = compose(ARTIFACTS[name], rows_of)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / name).write_text(text + "\n")
        return text

    return write
