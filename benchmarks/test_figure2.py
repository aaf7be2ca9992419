"""Figure 2: delay erasing expired keys vs. total database size.

Paper (lazy Redis expiry): 41 s at 1k keys doubling roughly with size to
10,728 s at 128k keys; their modified (full-scan) expiry erases within
sub-second latency for up to 1M keys.
"""

from repro.bench.figure2 import (
    FIGURE2,
    FULLSCAN_AT_SCALE,
    PAPER_LAZY_SECONDS,
    doubling_ratios,
    measure_erasure_delay,
)


def test_figure2_lazy_vs_fullscan(benchmark, rows_of, write_artifact):
    rows = benchmark.pedantic(lambda: rows_of(FIGURE2),
                              rounds=1, iterations=1)
    benchmark.extra_info["table"] = write_artifact("figure2.txt")
    # Lazy erasure delay is minutes-to-hours and grows with size.
    assert rows[0]["lazy_seconds"] > 5.0
    assert rows[-1]["lazy_seconds"] > rows[0]["lazy_seconds"] * 4
    # Roughly linear growth: each doubling costs ~2x (paper shape).
    ratios = [r for _, r in doubling_ratios(rows)]
    for ratio in ratios:
        assert 1.0 <= ratio <= 5.0
    # Same order of magnitude as the paper's measured seconds.
    for row in rows:
        paper = PAPER_LAZY_SECONDS[row["total_keys"]]
        assert paper / 4 <= row["lazy_seconds"] <= paper * 4
    # The modified expiry erases everything within one second.
    for row in rows:
        assert row["fullscan_seconds"] < 1.0


def test_figure2_lazy_1k_point(benchmark):
    m = benchmark.pedantic(lambda: measure_erasure_delay(1_000, "lazy"),
                           rounds=1, iterations=1)
    benchmark.extra_info["erase_seconds"] = round(m.erase_seconds, 1)
    benchmark.extra_info["paper_seconds"] = PAPER_LAZY_SECONDS[1_000]
    assert m.completed


def test_figure2_fullscan_sub_second_large(benchmark, rows_of):
    (row,) = benchmark.pedantic(lambda: rows_of(FULLSCAN_AT_SCALE),
                                rounds=1, iterations=1)
    benchmark.extra_info["keys"] = row["total_keys"]
    benchmark.extra_info["erase_seconds"] = round(
        row["fullscan_seconds"], 4)
    assert row["total_keys"] == 100_000
    # The paper's sub-second claim (a run stopped by the safety cap
    # reports the cap, a day, so this also says it completed).
    assert row["fullscan_seconds"] < 1.0


def test_figure2_indexed_strategy_extension(benchmark):
    """Section 5.1's research direction: an expiry index erases as fast
    as the full scan without paying O(n) per cycle."""
    m = benchmark.pedantic(
        lambda: measure_erasure_delay(50_000, "indexed"),
        rounds=1, iterations=1)
    assert m.completed
    assert m.erase_seconds < 1.0
    benchmark.extra_info["erase_seconds"] = round(m.erase_seconds, 4)
