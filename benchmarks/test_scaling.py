"""The three closed-loop cluster tables as pinned artifacts.

Writes ``bench_results/scaling.txt``, ``resharding.txt`` and
``replication.txt``: exactly what ``python -m repro.bench <scenario>``
prints at the default CLI sizes, so a change that moves a closed-loop
number shows up as a diff of a committed file (see docs/benchmarks.md).
Each scenario is one client driving the cluster's event core with its
pipelined batch outstanding; the re-run check pins that the simulated
numbers do not depend on anything but the seed.
"""

import contextlib
import io

import pytest
from conftest import OPERATIONS, RECORDS, write_result

from repro.bench.__main__ import main

SCENARIOS = ("scaling", "resharding", "replication")


def cli_output(scenario, records, operations):
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        main([scenario, "--records", str(records), "--ops",
              str(operations)])
    return captured.getvalue().strip("\n")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_closed_loop_artifact(results_dir, scenario):
    text = cli_output(scenario, RECORDS, OPERATIONS)
    write_result(results_dir, f"{scenario}.txt", text)
    assert "ops/s" in text


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_closed_loop_byte_identical_across_runs(scenario):
    assert cli_output(scenario, 60, 160) == cli_output(scenario, 60, 160)
