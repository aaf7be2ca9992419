#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perf/run.py --seed 42 --out A.jsonl      # several times each
    python3 perf/run.py --seed 42 --out B.jsonl
    python3 perf/compare.py A.jsonl B.jsonl
    python3 perf/compare.py --summarize A.jsonl > perf/baseline/BENCH_n.json

A is the reference (the parent commit, or a committed ``perf/baseline``
file), B the candidate.  Runs are grouped by workload and seed -- simulated
metrics are exact for a seed and differ between seeds -- and each end-to-end
metric gets one row:

* ``regressed``   B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread (IQR / median) of either side
  exceeds the bound, so the medians cannot settle it;
* ``improved``    B's median is better by more than either side's spread;
* ``unchanged``   otherwise.

Directions and host-metric bounds come from ``BENCHMARK.json``; the
workload-specific metrics that file cannot carry take theirs from
``perf/metrics.py``.  Simulated metrics are exact for a seed, so here --
where both sides ran the same seeds -- they are held to
``metrics.SIM_SAME_SEED_BOUND`` (0.1 %) rather than to the seed-to-seed
allowance ``BENCHMARK.json`` has to grant.  The exit code is 1 if any row
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import metrics  # noqa: E402

Key = Tuple[str, int, str]      # workload, seed, metric


def load(path: str) -> List[dict]:
    """Runs from a ``--out`` file (JSON lines) or a ``--summarize`` file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line]
    return document["runs"] if "runs" in document else [document]


def rules() -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) for every gated end-to-end metric."""
    contract = json.loads(
        (PERF_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = {row["name"]: (row["better"],
                           metrics.SIM_SAME_SEED_BOUND
                           if row["name"].startswith("sim_")
                           else row["bound"])
             for row in contract["end_to_end"]}
    for metric in metrics.EXTRA_END_TO_END:
        table[metric.name] = (metric.better, metric.bound)
    return table


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: List[dict]) -> Dict[Key, dict]:
    series: Dict[Key, List[float]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        if run.get("trace") or not run.get("correct", True):
            continue
        for name, row in run["metrics"].items():
            series.setdefault((run["workload"], run["seed"], name),
                              []).append(row["value"])
            units[name] = row["unit"]
    summary = {}
    for key, values in series.items():
        q1, q2, q3 = quartiles(values)
        summary[key] = {"median": q2, "q1": q1, "q3": q3, "n": len(values),
                        "spread": (q3 - q1) / abs(q2) if q2 else 0.0,
                        "unit": units[key[2]]}
    return summary


def verdict(reference: dict, candidate: dict, better: str,
            bound: float) -> Tuple[str, float]:
    """(status, worsening as a share of the reference median)."""
    change = (candidate["median"] - reference["median"]) \
        / abs(reference["median"]) if reference["median"] else 0.0
    worse = -change if better == "higher" else change
    spread = max(reference["spread"], candidate["spread"])
    if spread > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > spread:
        return "improved", worse
    return "unchanged", worse


def compare(reference_runs: List[dict], candidate_runs: List[dict]) -> int:
    reference = summarize(reference_runs)
    candidate = summarize(candidate_runs)
    table = rules()
    regressions = 0
    print(f"{'workload':16s} {'seed':>5s} {'metric':30s} "
          f"{'reference':>14s} {'candidate':>14s} {'worse by':>9s} "
          f"{'spread':>13s} {'bound':>6s}  verdict")
    for key in sorted(reference):
        workload, seed, name = key
        if key not in candidate or name not in table:
            continue
        better, bound = table[name]
        status, worse = verdict(reference[key], candidate[key], better,
                                bound)
        regressions += status == "regressed"
        print(f"{workload:16s} {seed:5d} {name:30s} "
              f"{reference[key]['median']:14.4f} "
              f"{candidate[key]['median']:14.4f} {worse:+9.2%} "
              f"{reference[key]['spread']:6.2%}/"
              f"{candidate[key]['spread']:6.2%} {bound:6.1%}  {status}")
    missing = sorted(set(reference) - set(candidate))
    if missing:
        print(f"{len(missing)} workload/seed/metric rows have no candidate "
              f"runs, e.g. {missing[0]}")
    return 1 if regressions else 0


def print_summary(runs: List[dict]) -> None:
    """The committed form of a run set: per workload x seed x metric the
    median and quartiles, plus the runs they came from."""
    kept = [run for run in runs if not run.get("trace")]
    slowdowns = [run["notes"]["host.calib_slowdown_median"] for run in kept
                 if "host.calib_slowdown_median" in run.get("notes", {})]
    document = {
        "nproc": kept[0].get("nproc"),
        "python": kept[0].get("python"),
        "host.calib_slowdown_median":
            statistics.median(slowdowns) if slowdowns else None,
        "summary": [
            {"workload": workload, "seed": seed, "metric": name, **row}
            for (workload, seed, name), row
            in sorted(summarize(kept).items())],
        "runs": [{key: run[key] for key in
                  ("workload", "seed", "seconds", "trace", "correct",
                   "attempted", "failed", "metrics")} for run in kept],
    }
    json.dump(document, sys.stdout, indent=1)
    sys.stdout.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+",
                        help="reference and candidate run files")
    parser.add_argument("--summarize", action="store_true",
                        help="print medians and quartiles of one run file")
    args = parser.parse_args(argv)
    if args.summarize:
        print_summary([run for path in args.files for run in load(path)])
        return 0
    if len(args.files) != 2:
        parser.error("give a reference and a candidate file")
    return compare(load(args.files[0]), load(args.files[1]))


if __name__ == "__main__":
    sys.exit(main())
