"""Shared benchmark configuration.

Scale knobs (environment variables):

* ``REPRO_BENCH_RECORDS`` / ``REPRO_BENCH_OPS`` -- YCSB scale per phase
  (defaults 300 / 800; throughput in simulated time is scale-invariant
  well below the paper's 2M operations, see docs/benchmarks.md).
* ``REPRO_BENCH_FULL=1`` -- run the full Figure 2 sweep to 128k keys and
  the 1M-key fast-expiry extension (minutes of wall time instead of
  seconds).

Every benchmark writes its rendered table into ``bench_results/`` so the
paper-vs-measured record in docs/benchmarks.md can be regenerated.
"""

import os
import pathlib

import pytest

RECORDS = int(os.environ.get("REPRO_BENCH_RECORDS", "300"))
OPERATIONS = int(os.environ.get("REPRO_BENCH_OPS", "800"))
FULL_SWEEP = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent \
    / "bench_results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir, name, text):
    path = results_dir / name
    path.write_text(text + "\n")
    return path
