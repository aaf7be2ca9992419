"""The three closed-loop cluster tables as pinned artifacts.

Writes ``bench_results/scaling.txt``, ``resharding.txt`` and
``replication.txt``: everything ``python -m repro.bench <scenario>``
prints at the default CLI sizes, so a change that moves a closed-loop
number shows up as a diff of a committed file (see docs/benchmarks.md).
Each scenario is one client driving the cluster's event core with its
pipelined batch outstanding.
"""

import pytest

SCENARIOS = ("scaling", "resharding", "replication")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_closed_loop_artifact(write_artifact, scenario):
    assert "ops/s" in write_artifact(f"{scenario}.txt")
