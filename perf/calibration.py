"""Calibrated host seconds: wall time divided by how slow the host is *now*.

This machine is a shared 2-vCPU VM with seconds-long slow phases: the same
1000-op slice of the strict stack takes 0.30-0.57 s, ``process_time``
tracks wall time and ``/proc/stat`` steal does not flag the slow phases, so
a raw wall-clock number cannot gate anything.  The cure used here:

* every host-timed region is cut into **slices of a fixed amount of work**
  (ops, records, events -- never a duration), each ~100-200 ms;
* a fixed **calibration kernel** (pure-Python dict/object work,
  ``json.dumps``, ``sha256`` and a per-byte XOR -- the same kind of
  interpreter-bound work the simulator does, importing nothing from
  ``repro``) is read between slices, each reading the median of
  ``KERNEL_RUNS`` back-to-back runs (~16 ms in all);
* a slice's calibrated time is
  ``wall * CAL_REF_S / mean(kernel before, kernel after)``.

``CAL_REF_S`` is the kernel's time on this box in a quiet phase, frozen
when the benchmark landed; calibrated seconds therefore read as "seconds on
the reference host" and stay comparable when the host slows down, because
the kernel slows down with the slice it brackets.  A region bracketed only
at its ends does not work (a 1 s region came out 0.73-1.23), which is why
slicing is mandatory.  ``python perf/run.py --noise`` re-checks all of this
on the machine at hand.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from typing import Callable, Dict, List

# Seconds one kernel run takes on the reference host (2 vCPU, CPython 3.11,
# quiet phase).  Frozen: changing it rescales every calibrated number.
CAL_REF_S = 0.0031
KERNEL_ITEMS = 750
KERNEL_RUNS = 5             # per reading; the reading is their median
WARMUP_SECONDS = 0.5


def kernel(items: int = KERNEL_ITEMS) -> str:
    """The fixed unit of host work; returns a digest so nothing is dead."""
    table: Dict[str, dict] = {}
    for i in range(items):
        table["k%d" % i] = {"a": i, "b": [i, i + 1, i + 2], "c": str(i * 7)}
    total = 0
    for key, row in table.items():
        total += row["a"] + len(row["c"]) + len(key)
    blob = json.dumps(table, sort_keys=True).encode("ascii")
    stream = hashlib.sha256(blob).digest() * (len(blob) // 32 + 1)
    mixed = bytes(a ^ b for a, b in zip(blob, stream))
    return hashlib.sha256(mixed + str(total).encode("ascii")).hexdigest()


def time_kernel() -> float:
    """Seconds one kernel run takes now: the median of a few back-to-back
    runs, because a single ~3 ms reading is at the mercy of one interrupt
    (measured here: per-slice spread 28% with one 15 ms run, 8% with the
    median of short ones).  The collector is paused: the kernel allocates
    enough to trigger collections whose cost depends on how many objects
    the process holds, which is the benchmark's state, not the host's."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        readings = []
        for _ in range(KERNEL_RUNS):
            started = time.perf_counter()
            kernel()
            readings.append(time.perf_counter() - started)
        return statistics.median(readings)
    finally:
        if was_enabled:
            gc.enable()


def warm_up(seconds: float = WARMUP_SECONDS) -> None:
    """Run the kernel until caches, the allocator and the CPU governor have
    settled; the first timings after process start are never used."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kernel()


class SliceTimer:
    """Times fixed-work slices, bracketing each with the kernel.

    Slices are grouped under a ``region`` name ("gen", "load", "run"); the
    kernel run that closes one slice opens the next, so the overhead is one
    kernel per slice.
    """

    def __init__(self) -> None:
        self.raw: Dict[str, List[float]] = {}
        self.calibrated: Dict[str, List[float]] = {}
        self.units: Dict[str, List[int]] = {}
        self.kernels: List[float] = [time_kernel()]

    def measure(self, region: str, work: Callable[[], object],
                units: int = 1) -> object:
        """Time ``work`` (``units`` ops/records of it) as one slice."""
        before = self.kernels[-1]
        started = time.perf_counter()
        result = work()
        wall = time.perf_counter() - started
        after = time_kernel()
        self.kernels.append(after)
        self.raw.setdefault(region, []).append(wall)
        self.calibrated.setdefault(region, []).append(
            wall * CAL_REF_S / ((before + after) / 2.0))
        self.units.setdefault(region, []).append(units)
        return result

    def seconds(self, regions, calibrated: bool = True) -> float:
        """Total (calibrated or raw) seconds spent in ``regions``."""
        source = self.calibrated if calibrated else self.raw
        return sum(sum(source.get(region, ())) for region in regions)

    def rates(self, region: str, calibrated: bool = True) -> List[float]:
        """Units per (calibrated or raw) second, one value per slice."""
        source = self.calibrated if calibrated else self.raw
        return [units / seconds for units, seconds
                in zip(self.units.get(region, ()), source.get(region, ()))
                if seconds > 0]


def slowdown(kernels: List[float]) -> float:
    """How much slower than the reference host these kernel readings say
    the host was (their median over ``CAL_REF_S``)."""
    return statistics.median(kernels) / CAL_REF_S


def spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, the spread the acceptance rules are written in."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
