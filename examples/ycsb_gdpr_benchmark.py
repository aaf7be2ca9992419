#!/usr/bin/env python3
"""Drive YCSB against the GDPR store, the paper's Figure 1 in miniature.

Runs workload A against three deployments and prints the throughput table
plus the timely-deletion comparison of Figure 2 at a small scale.

Run with::

    python examples/ycsb_gdpr_benchmark.py
"""

from repro.bench.figure2 import FIGURE2
from repro.bench.micro import MICRO_FSYNC, MICRO_TLS_BANDWIDTH
from repro.bench.reporting import render, render_table, sweep


def main() -> None:
    print("YCSB-A throughput across the paper's configurations")
    print("(simulated time; ratios are what the paper reports)\n")
    throughputs = {row["config"]: row["throughput"]
                   for row in sweep(MICRO_FSYNC, 300, 1000)}
    base = throughputs["unmodified"]
    rows = [[name, f"{tp:,.0f}", f"{tp / base:.1%}"]
            for name, tp in throughputs.items()]
    print(render_table(["config", "ops/s", "vs unmodified"], rows))
    always = throughputs["aof-always"]
    everysec = throughputs["aof-everysec"]
    print(f"\nstrict sync logging slowdown: {base / always:.1f}x "
          "(paper: ~20x)")
    print(f"everysec recovery:            {everysec / always:.1f}x "
          "(paper: ~6x)\n")

    print("TLS proxy bandwidth (paper: 44 -> 4.9 Gb/s):")
    for row in sweep(MICRO_TLS_BANDWIDTH, 0, 0):
        print(f"  {row['path']:8s} {row['gbps']:5.1f} Gb/s")

    print("\nFigure 2 (small sweep): erasure delay of expired keys")
    print(render(FIGURE2, sweep(
        FIGURE2, 0, 0, pins={"total_keys": (1_000, 2_000, 4_000)})))
    print("\n(lazy = Redis 4.0 probabilistic expiry; fullscan = the "
          "paper's modification)")


if __name__ == "__main__":
    main()
