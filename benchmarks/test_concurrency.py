"""The open-loop latency-vs-offered-load curve (the "hockey stick").

Writes ``bench_results/concurrency_hockey_stick.txt``: one seeded sweep
of arrival rates against a single event-loop shard, p50/p99 end-to-end
latency per point.  The assertions pin the curve's *shape* -- flat
below the service-time ceiling, bent sharply upward past it -- rather
than exact values, so recalibration cannot silently erase the knee.
"""

import timeit

from repro.bench.scaling import (
    AUTOSCALE_DEMO,
    DEFAULT_HOCKEY_RATES,
    HOCKEY_STICK,
    WORKERS,
    WORKERS_SKEW,
    knees,
)
from repro.cluster import slot_for_key
from repro.cluster.client import parse_command
from repro.cluster.workers import classify, route_of


def test_hockey_stick_artifact(rows_of, write_artifact):
    write_artifact("concurrency_hockey_stick.txt")
    rows = rows_of(HOCKEY_STICK)

    by_rate = {row["arrival_rate"]: row for row in rows}
    low = by_rate[min(by_rate)]
    high = by_rate[max(by_rate)]
    # Past the ceiling the offered stream outruns completions, so the
    # backlog grows and p99 latency bends sharply upward.
    assert high["p99_latency"] > 10 * low["p99_latency"]
    assert high["max_backlog"] > low["max_backlog"]
    # Below the knee, completions keep up with admissions.
    assert low["throughput"] > 0.9 * low["arrival_rate"]
    # Throughput saturates: doubling offered load past the ceiling must
    # not double completions.
    mid = by_rate[sorted(by_rate)[len(by_rate) // 2]]
    assert high["throughput"] < 1.5 * mid["throughput"]
    # The monotone latency climb along the sweep (allowing ties).
    p99s = [row["p99_latency"] for row in rows]
    assert p99s == sorted(p99s)


def test_workers_ceiling_artifact(rows_of, write_artifact):
    """The workers-vs-ceiling table: the knee per worker count, plus the
    autoscale demo that closes the loop on it.

    The assertions pin the PR's headline: with 4 workers the knee sits
    at >= 2x the single-loop saturation point (~40k -> >= 80k offered
    ops/s before p99 crosses 1 ms), and worker count 1 keeps the legacy
    single-loop ceiling.
    """
    write_artifact("concurrency_workers.txt")
    rows = rows_of(WORKERS)
    phases = rows_of(AUTOSCALE_DEMO)

    knee = knees(rows, "cores")
    # Single loop saturates at the calibrated ~40k ceiling...
    assert knee[1] == 40_000.0
    # ...and 4 workers push the knee to at least double that.
    assert knee[4] >= 80_000.0 >= 2 * knee[1]
    # More cores never lower the ceiling.
    ordered = [knee[cores] for cores in sorted(knee)]
    assert ordered == sorted(ordered)
    # The autoscale demo recovers: saturation phase blows past 1 ms p99,
    # the ladder (worker raise + spill) lands, and the final phase at
    # the same offered rate is back under the knee's ceiling.
    hot = max(row["p99_latency"] for row in phases)
    assert hot > 1e-3
    assert phases[-1]["p99_latency"] < 1e-3
    assert any("worker-raise" in row["actions"] for row in phases)
    assert any("scale-out" in row["actions"] for row in phases)
    assert phases[-1]["shards_serving"] == 2


def test_workers_skew_artifact(rows_of, write_artifact):
    """The skew table: zipfian vs uniform knees, static slot%K vs
    skew-aware placement.

    The assertions pin this PR's headline: with placement on, the
    4-core zipfian knee reaches >= 1.5x the static-partition zipfian
    knee, driven by rebalances (and at least one read-split) that the
    static rows never fire.
    """
    write_artifact("concurrency_workers_skew.txt")
    rows = rows_of(WORKERS_SKEW)

    curve = ("cores", "request_distribution", "placement")
    knee = knees(rows, *curve)
    static, placed, uniform = ((4, "zipfian", False), (4, "zipfian", True),
                               (4, "uniform", False))

    def total(count, of_curve):
        return sum(row[count] for row in rows
                   if tuple(row[axis] for axis in curve) == of_curve)

    # The headline ratio: placement claws the skewed knee back up.
    assert knee[placed] >= 1.5 * knee[static]
    # ...but never past the no-skew control.
    assert knee[placed] <= knee[uniform]
    # The knee moved because the rebalancer (and the read-split rung)
    # actually fired; the static partition never rebalances.
    assert total("rebalances", placed) > 0
    assert total("splits", placed) > 0
    assert total("rebalances", static) == 0
    assert total("rebalances", uniform) == 0
    # Single core is immune to placement: nothing to re-home.
    assert knee[1, "zipfian", True] == knee[1, "zipfian", False]


def test_intake_parse_cost_does_not_follow_key_bytes():
    """Micro-assert for the one-parse-per-command intake (it replaced the
    ``RouteMemo`` cache, whose job was to dodge a per-byte Python CRC16
    loop): working out a request's name, keys, slot and route hashes the
    key at C speed, so a 4 KiB key costs nowhere near 500x an 8-byte one
    -- or the hot dispatch path regressed."""
    short = [b"GET", b"user4000"]
    long = [b"GET", b"user4000" * 512]
    assert route_of(parse_command(short)) == (classify(short), True)
    assert parse_command(long)[2] == slot_for_key(long[1])
    cheap = min(timeit.repeat(lambda: route_of(parse_command(short)),
                              number=5_000, repeat=5))
    costly = min(timeit.repeat(lambda: route_of(parse_command(long)),
                               number=5_000, repeat=5))
    assert costly < 20 * cheap


def test_default_rates_span_the_knee():
    rates = DEFAULT_HOCKEY_RATES
    assert rates == tuple(sorted(rates))
    # The calibrated single-shard ceiling is ~40 kops/s; the sweep must
    # sample both sides of it for the artifact to show the knee.
    assert min(rates) < 20_000 < 40_000 <= max(rates)
