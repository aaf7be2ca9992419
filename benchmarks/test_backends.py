"""The backends scenario as a pytest-benchmark driver.

Writes ``bench_results/backends.txt`` and asserts the comparison's
*relationships* (not exact values): the KV engine's faster baseline,
the relational engine's smaller relative compliance penalty, and
synchronous audit dominating both -- the paper's Redis-vs-PostgreSQL
takeaways.
"""

from repro.bench.backends import BACKENDS


def test_backends_artifact(rows_of, write_artifact):
    write_artifact("backends.txt")
    tput = {(row["engine"], row["feature"]): row["throughput"]
            for row in rows_of(BACKENDS)}

    def slowdown(engine):
        return tput[(engine, "baseline")] / tput[(engine, "full-gdpr")]

    # Stock KV beats stock relational (no parse/plan/WAL overheads)...
    assert tput[("redislike", "baseline")] \
        > 2 * tput[("relational", "baseline")]
    # ...but pays a larger *relative* price for full compliance: the
    # relational baseline already carries WAL costs (the paper's
    # Redis-vs-Postgres asymmetry).
    assert slowdown("redislike") > 2 * slowdown("relational")
    # Monitoring (read logging) costs the KV engine relatively more:
    # it gains a durable log it never had.
    kv_logging = tput[("redislike", "+logging")] \
        / tput[("redislike", "baseline")]
    sql_logging = tput[("relational", "+logging")] \
        / tput[("relational", "baseline")]
    assert sql_logging > kv_logging
    # Synchronous audit is the dominant feature cost on both engines.
    for engine in ("redislike", "relational"):
        for feature in ("+logging", "+metadata", "+ttl", "+encrypt"):
            assert tput[(engine, "+audit")] < tput[(engine, feature)]
    # Every feature costs something.
    for (engine, feature), value in tput.items():
        if feature != "baseline":
            assert value < tput[(engine, "baseline")]
    # Fast-GDPR (block-sealed audit + fused writes + write-behind) runs
    # the full feature set yet recovers >=5x over per-op SYNC audit on
    # the KV engine -- the paper's "batch the monitoring logs"
    # suggestion, quantified -- and beats strict full-gdpr on both.
    assert tput[("redislike", "fast-gdpr")] \
        >= 5 * tput[("redislike", "+audit")]
    for engine in ("redislike", "relational"):
        assert tput[(engine, "fast-gdpr")] \
            > tput[(engine, "full-gdpr")]
