#!/usr/bin/env python3
"""The compliance spectrum (paper section 3.2) made concrete.

Builds three systems -- unmodified Redis-alike, an *eventually* compliant
GDPR store, and a *strictly* compliant one -- assesses each against the 13
storage-relevant GDPR articles of Table 1, and measures what each level of
compliance costs on YCSB-A.

Run with::

    python examples/compliance_spectrum.py
"""

from repro import SimClock
from repro.bench.ablation import gdpr_slowdown
from repro.bench.table1 import eventual_gdpr_store, strict_gdpr_store
from repro.gdpr import (
    assess,
    gdpr_store_profile,
    redis_baseline_profile,
    render_table1,
)


def main() -> None:
    baseline = redis_baseline_profile()
    eventual = gdpr_store_profile(eventual_gdpr_store(),
                                  name="gdpr-eventual")
    strict = gdpr_store_profile(strict_gdpr_store(), name="gdpr-strict")

    print("Table 1 with per-system verdicts "
          "(capability/response-time):\n")
    print(render_table1([baseline, eventual, strict]))
    print()

    for profile in (baseline, eventual, strict):
        assessment = assess(profile)
        print(f"{profile.name:22s} compliant articles: "
              f"{assessment.articles_compliant:2d}/13   "
              f"strict articles: {assessment.articles_strict:2d}/13   "
              f"STRICT={assessment.strict}")

    print("\nWhat strictness costs (YCSB-A, simulated time):")
    results = {row["config"]: row["value"] for row
               in gdpr_slowdown(record_count=200, operation_count=600)}
    print(f"  unmodified store:      "
          f"{results['unmodified']:>10,.0f} ops/s")
    print(f"  fsync-always logging:  "
          f"{results['aof-always']:>10,.0f} ops/s "
          f"({results['paper_20x_slowdown']:.1f}x slower -- the paper's "
          "20x headline)")
    print(f"  full strict GDPR stack:"
          f"{results['gdpr-strict']:>10,.0f} ops/s "
          f"({results['slowdown_x']:.1f}x slower)")


if __name__ == "__main__":
    main()
