"""The tenancy scenario as a pytest-benchmark driver.

Writes ``bench_results/tenancy.txt`` and asserts the comparison's
*relationships* (not exact values): the noisy tenant's admitted rate
pins to its ops/s quota while the excess is throttled, the quiet
tenant's p99 under contention stays within 2x of its solo baseline, and
the per-tenant usage reports seal into a verifiable audit chain.
"""

from repro.bench.tenancy import NOISY_OFFERED, NOISY_QUOTA, TENANCY


def test_tenancy_artifact(rows_of, write_artifact):
    write_artifact("tenancy.txt")
    by = {(row["tenant"], row["phase"]): row for row in rows_of(TENANCY)}
    solo = by[("quiet", "solo")]
    quiet = by[("quiet", "contended")]
    noisy = by[("noisy", "contended")]

    # The cap holds: the noisy tenant lands at its quota (token-bucket
    # burst gives a little headroom at the start of the run), and the
    # overload was real -- most of the offered stream got throttled.
    assert noisy["admitted_rate"] <= NOISY_QUOTA * 1.1
    assert noisy["admitted_rate"] >= NOISY_QUOTA * 0.8
    assert noisy["throttled"] > noisy["completed"] / 2
    assert noisy["offered_rate"] == NOISY_OFFERED

    # Isolation: the neighbour's 4x overload doesn't leak into the
    # quiet tenant's tail.
    assert quiet["throttled"] == 0
    assert quiet["p99_ms"] <= 2 * solo["p99_ms"]

    # Metering: every sealed report re-verifies, and the throttles are
    # on the chain as billing evidence.
    assert noisy["metering_reports"] > 0
    assert noisy["metering_verified"] == noisy["metering_reports"]
    assert noisy["billed"]["throttled"] == noisy["throttled"]
    assert noisy["billed"]["ops"] \
        == noisy["completed"] - noisy["throttled"]
