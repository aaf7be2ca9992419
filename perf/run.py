#!/usr/bin/env python3
"""The repo's benchmark: four workloads, two clocks, one command.

    python3 perf/run.py                        # all four workloads, untraced
    python3 perf/run.py --workload strict_kv --seed 7 --trace 1
    python3 perf/run.py --smoke                # tiny sizes, a few seconds
    python3 perf/run.py --noise                # raw vs calibrated spread here

Every metric is printed by name with its unit and sample count; with
``--workload`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).  A
failed output check sets ``correct`` to false and the exit code to 1.

Each workload runs in its own process started with ``PYTHONHASHSEED=0``,
one at a time and without threads, so nothing else this command starts
competes for the two cores.  ``--out FILE`` appends one JSON line per
workload run, the input of ``perf/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
SRC_DIR = PERF_DIR.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Two-clock benchmark of the GDPR storage stack.")
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="scales the fixed op counts (10 = as frozen)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed sizes (tests)")
    parser.add_argument("--noise", action="store_true",
                        help="print raw vs calibrated slice spread and exit")
    parser.add_argument("--out", help="append one JSON line per run here")
    return parser.parse_args(argv)


def in_child_process() -> int:
    """Re-run this command in a child with a fixed hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run([sys.executable, str(Path(__file__).resolve())]
                          + sys.argv[1:], env=env).returncode


def run_all(args: argparse.Namespace) -> int:
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", args.out]
        status = max(status, subprocess.run(command).returncode)
    return status


def run_one(args: argparse.Namespace) -> int:
    import calibration
    import measure
    import metrics
    import workloads
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    from repro.crypto.cipher import seeded_entropy
    calibration.warm_up(0.1 if args.smoke else calibration.WARMUP_SECONDS)
    # Seeded nonces and keys: ciphertext feeds zlib in the cold tier, so
    # entropy must be reproducible for byte counts to repeat.
    with seeded_entropy(args.seed):
        if args.trace:
            result = measure.per_layer(cls, args.seed, args.seconds,
                                       args.smoke)
            table = metrics.PER_LAYER
        else:
            result = measure.end_to_end(cls, args.seed, args.seconds,
                                        args.smoke)
            table = metrics.END_TO_END + tuple(
                metric for metric in metrics.EXTRA_END_TO_END
                if metrics.applies(metric, cls.name))
    reported = {}
    for metric in table:
        value, samples = result.values[metric.name]
        if not math.isfinite(value):
            result.problems.append(f"{metric.name} is not finite")
        print(f"{cls.name:16s} {metric.name:48s} {value:16.6f} "
              f"{metric.unit:6s} n={samples}")
        reported[metric.name] = {"value": value, "unit": metric.unit,
                                 "n": samples}
    for name, note in result.notes.items():
        print(f"{cls.name:16s} note {name} = {note}")
    for problem in result.problems:
        print(f"{cls.name:16s} CHECK FAILED: {problem}")
    record = {
        "workload": cls.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "metrics": reported,
        "notes": result.notes, "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
    contract_names = {metric.name for metric in (
        metrics.PER_LAYER if args.trace else metrics.END_TO_END)}
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in reported.items()
                    if name in contract_names},
    }))
    return 0 if result.correct else 1


def noise_selftest(args: argparse.Namespace) -> int:
    """One workload's run-phase slice series: raw vs calibrated spread."""
    import calibration
    import measure
    import workloads
    calibration.warm_up()
    cls = workloads.WORKLOADS[args.workload or "strict_kv"]
    workload = cls(args.seed, args.seconds, args.smoke)
    workload.generate(workloads.NullTimer())
    stack = workload.build(workloads.NullTimer())
    timer = calibration.SliceTimer()
    measure.run_phase(workload, stack, timer)
    full = [index for index, units in enumerate(timer.units["run"])
            if units == max(timer.units["run"])]
    if len(full) < 2:
        print("too few slices for a spread; run --noise at full size",
              file=sys.stderr)
        return 2
    print(f"{cls.name}: {len(full)} full slices of "
          f"{max(timer.units['run'])} ops, kernel reference "
          f"{calibration.CAL_REF_S * 1e3:.1f} ms")
    for label, series in (("raw wall", timer.raw["run"]),
                          ("calibrated", timer.calibrated["run"]),
                          ("kernel", timer.kernels)):
        values = [series[index] for index in full] \
            if label != "kernel" else series
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"  {label:11s} median {q2 * 1e3:8.2f} ms  quartiles "
              f"{q1 * 1e3:8.2f} .. {q3 * 1e3:8.2f} ms  spread "
              f"{(q3 - q1) / q2:6.1%}  min-max "
              f"{min(values) * 1e3:.2f} .. {max(values) * 1e3:.2f} ms")
    print(f"  host is {calibration.slowdown(timer.kernels):.2f}x the reference "
          "(median kernel / CAL_REF_S)")
    print("  run it several times: the median of the calibrated series "
          "should move by less than half host_ops_per_s's bound between "
          "runs, the raw one need not")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        return in_child_process()
    sys.path.insert(0, str(SRC_DIR))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the system under test from {SRC_DIR}: {exc}",
              file=sys.stderr)
        return 2
    if args.noise:
        return noise_selftest(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
