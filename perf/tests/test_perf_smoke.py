"""Tier-1 smoke of the benchmark itself, at ``--smoke`` sizes.

Runs every workload's untraced and traced pass in-process (no warm-up, no
child processes, a few seconds in all) plus one real command-line run, and
checks what later PRs rely on: every metric ``BENCHMARK.json`` names is
emitted, simulated metrics are a function of the seed alone, the traced
layers account for the end-to-end simulated latency, and tracing leaves no
wrapper behind.
"""

import gc
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent.parent
ROOT = PERF_DIR.parent
for entry in (str(ROOT / "src"), str(PERF_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layertrace  # noqa: E402
import measure  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from repro.crypto.cipher import seeded_entropy  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [row["name"] for row in CONTRACT["workloads"]]


@pytest.fixture(autouse=True)
def _thaw():
    yield
    gc.unfreeze()       # the passes freeze the heap after set-up


_END_TO_END = {}


def _end_to_end(name, seed=42, fresh=False):
    if fresh or (name, seed) not in _END_TO_END:
        with seeded_entropy(seed):
            _END_TO_END[name, seed] = measure.end_to_end(
                workloads.WORKLOADS[name], seed, 10.0, smoke=True)
    return _END_TO_END[name, seed]


def _per_layer(name, seed=42):
    with seeded_entropy(seed):
        return measure.per_layer(workloads.WORKLOADS[name], seed, 10.0,
                                 smoke=True)


def test_contract_file_matches_the_metric_table():
    assert list(CONTRACT) == ["command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"]
    assert CONTRACT["paths"] == ["perf"]
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    for row, cls in zip(CONTRACT["workloads"], workloads.WORKLOADS.values()):
        assert row["why"] == cls.why
    assert CONTRACT["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert CONTRACT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    assert any(row["name"] == "setup_s" and row["unit"] == "s"
               and row["better"] == "lower"
               for row in CONTRACT["end_to_end"])


def test_readme_names_every_metric_and_has_no_placeholder():
    readme = (PERF_DIR / "README.md").read_text(encoding="utf-8")
    assert not re.search(r"@\w+@", readme)
    for metric in metrics.END_TO_END + metrics.EXTRA_END_TO_END:
        assert f"`{metric.name}`" in readme, metric.name
    for metric in metrics.PER_LAYER:
        layer, _, suffix = metric.name.rpartition(".")
        assert f"`{metric.name}`" in readme or (
            f"`{layer}`" in readme and f"`<layer>.{suffix}`" in readme) \
            or metric.name.startswith("ycsb.openloop.max_backlog_step"), \
            metric.name


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_emitted(name):
    result = _end_to_end(name)
    assert result.correct, result.problems
    assert result.attempted >= 1 and result.failed == 0
    for row in CONTRACT["end_to_end"]:
        value, _ = result.values[row["name"]]
        assert math.isfinite(value) and value > 0, row["name"]
    for metric in metrics.EXTRA_END_TO_END:
        if metrics.applies(metric, name):
            value, samples = result.values[metric.name]
            assert math.isfinite(value) and samples > 0, metric.name


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_pass_accounts_for_latency_and_cleans_up(name):
    originals = _entry_point_bindings()
    result = _per_layer(name)
    assert result.correct, result.problems
    for row in CONTRACT["per_layer"]:
        value, _ = result.values[row["name"]]
        assert math.isfinite(value), row["name"]
    latency = result.notes["sim_latency_us_per_op"]
    unattributed, _ = result.values["trace.sim_unattributed_us_per_op"]
    assert abs(unattributed) <= 0.01 * latency
    assert result.values["trace.overhead_x"][0] > 0
    assert _entry_point_bindings() == originals
    for binding in originals.values():
        assert not hasattr(binding, "__wrapped__")


def test_simulated_metrics_depend_on_the_seed_only():
    first, again, other = (_end_to_end("strict_kv", 42),
                           _end_to_end("strict_kv", 42, fresh=True),
                           _end_to_end("strict_kv", 7))
    simulated = [m.name for m in metrics.END_TO_END
                 if m.name.startswith("sim_")]
    assert [first.values[n][0] for n in simulated] \
        == [again.values[n][0] for n in simulated]
    assert [first.values[n][0] for n in simulated] \
        != [other.values[n][0] for n in simulated]


def test_command_line_prints_the_contract_object(tmp_path):
    out = tmp_path / "runs.jsonl"
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload",
         "strict_kv", "--seed", "3", "--seconds", "10", "--trace", "0",
         "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {row["name"]
                                    for row in CONTRACT["end_to_end"]}
    for row in CONTRACT["end_to_end"]:
        assert last["metrics"][row["name"]]["unit"] == row["unit"]
    compare = subprocess.run(
        [sys.executable, str(PERF_DIR / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60)
    assert compare.returncode == 0, compare.stdout + compare.stderr
    assert "regressed" not in compare.stdout


def _entry_point_bindings():
    """Every attribute the tracer patches, as currently bound."""
    bindings = {}
    for specs in layertrace.LAYERS.values():
        for spec in specs:
            module_name, _, path = spec.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attribute = path.split(".")
                owner = getattr(module, owner_name)
                bindings[spec] = vars(owner).get(attribute)
            else:
                for name, other in list(sys.modules.items()):
                    if name.split(".")[0] == "repro" and other is not None \
                            and path in vars(other):
                        bindings[f"{name}:{path}"] = vars(other)[path]
    clock = importlib.import_module("repro.common.clock")
    for owner in (clock.SimClock, clock.ShardClock, clock.WorkerClock):
        bindings[f"{owner.__name__}.advance"] = vars(owner).get("advance")
    bindings["SimClock.schedule_at"] = vars(clock.SimClock)["schedule_at"]
    return bindings
