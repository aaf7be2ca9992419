"""Shared by the bench CLI tests: every experiment runs once per
session through the CLI, and once more swept the way ``benchmarks/``
sweeps, at its row of the scenario-smoke table in
``.github/workflows/ci.yml`` (``figure1`` smaller still -- it is the
slow one)."""

import contextlib
import io

import pytest

from repro.bench.__main__ import EXPERIMENTS, main
from repro.bench.reporting import sweep

# experiment -> (--records, --ops, pin flags)
SMOKE = {
    "table1": (40, 100, {}),
    "figure1": (10, 20, {}),
    "figure2": (40, 100, {}),
    "micro": (40, 100, {}),
    "ablations": (40, 100, {}),
    "scaling": (40, 80, {}),
    "resharding": (40, 80, {}),
    "concurrency": (40, 200, {"shards": 2, "clients": 4}),
    "hockey_stick": (60, 200, {}),
    "workers": (40, 200, {"cores": 2}),
    "workers_skew": (40, 200, {"cores": 2}),
    "replication": (30, 80, {"shards": 2, "replicas": 2}),
    "backends": (40, 120, {}),
    "tiering": (60, 200, {}),
    "tenancy": (40, 200, {}),
}


@pytest.fixture(scope="session")
def smoke_stdout():
    """``smoke_stdout(experiment)`` -> everything the CLI prints for it
    at its smoke row."""
    captured = {}

    def stdout_of(experiment):
        if experiment not in captured:
            records, ops, pins = SMOKE[experiment]
            argv = [experiment, "--records", str(records),
                    "--ops", str(ops)]
            for flag, value in pins.items():
                argv += [f"--{flag}", str(value)]
            stream = io.StringIO()
            with contextlib.redirect_stdout(stream):
                assert main(argv) == 0
            captured[experiment] = stream.getvalue()
        return captured[experiment]

    return stdout_of


@pytest.fixture(scope="session")
def smoke_rows():
    """``smoke_rows(scenario)`` -> its rows at the smoke row of the
    experiment that prints it, from a sweep of their own (not the
    CLI's)."""
    swept = {}

    def rows_of(scenario):
        if id(scenario) not in swept:
            (experiment,) = [
                name for name, declared in EXPERIMENTS.items()
                if any(scenario is candidate for candidate in declared)]
            records, ops, pins = SMOKE[experiment]
            swept[id(scenario)] = sweep(scenario, records, ops, pins=pins)
        return swept[id(scenario)]

    return rows_of
