"""Section 4.1 micro-benchmark: candidate audit mechanisms.

Paper: "since Redis anyway performs its journaling via AOF, the first two
options [MONITOR, slowlog] result in more overhead than AOF"; fsync-always
drops throughput to ~5% of original; relaxing to everysec recovers 6x.
"""

from repro.bench.micro import MICRO_FSYNC, MICRO_LOGGING


def test_logging_mechanism_comparison(benchmark, rows_of, write_artifact):
    rows = benchmark.pedantic(lambda: rows_of(MICRO_LOGGING),
                              rounds=1, iterations=1)
    write_artifact("micro_logging.txt")
    results = {row["mechanism"]: row["throughput"] for row in rows}
    # AOF piggybacking beats MONITOR and slowlog-with-AOF.
    assert results["aof"] > results["monitor"]
    assert results["aof"] > results["slowlog+aof"]
    # Every mechanism costs something.
    assert results["none"] > results["aof"]
    benchmark.extra_info.update(
        {name: round(tp, 1) for name, tp in results.items()})


def test_fsync_always_vs_everysec(benchmark, rows_of, write_artifact):
    rows = benchmark.pedantic(lambda: rows_of(MICRO_FSYNC),
                              rounds=1, iterations=1)
    write_artifact("micro_fsync.txt")
    throughputs = {row["config"]: row["throughput"] for row in rows}
    base = throughputs["unmodified"]
    always = throughputs["aof-always"]
    everysec = throughputs["aof-everysec"]
    # Paper: fsync-always ~5% of original (the 20x headline).
    assert 0.02 <= always / base <= 0.10
    # Paper: everysec improves ~6x over always, landing near 30%.
    assert 4.0 <= everysec / always <= 10.0
    assert 0.20 <= everysec / base <= 0.50
    benchmark.extra_info["slowdown_20x"] = round(base / always, 1)
    benchmark.extra_info["recovery_6x"] = round(everysec / always, 1)
