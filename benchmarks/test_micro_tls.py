"""Section 4.2 micro-benchmark: encryption overhead.

Paper: TLS proxies reduced available bandwidth from 44 Gb/s to 4.9 Gb/s;
LUKS+TLS runs at about a third of original throughput, and "most of the
overhead was due to TLS".
"""

from repro.bench.__main__ import DEFAULT_OPS, DEFAULT_RECORDS
from repro.bench.ablation import ABLATION_ENCRYPTION
from repro.bench.micro import MICRO_TLS_BANDWIDTH, config_throughput


def test_stunnel_bandwidth_collapse(benchmark, rows_of, write_artifact):
    rows = benchmark.pedantic(lambda: rows_of(MICRO_TLS_BANDWIDTH),
                              rounds=1, iterations=1)
    write_artifact("micro_tls_bandwidth.txt")
    results = {row["path"]: row["gbps"] for row in rows}
    # Paper's measured numbers: ~44 vs ~4.9 Gb/s.
    assert 35 <= results["raw"] <= 44.5
    assert 4.0 <= results["stunnel"] <= 5.0
    assert results["raw"] / results["stunnel"] > 7
    benchmark.extra_info.update(
        {k: round(v, 2) for k, v in results.items()})


def test_tls_ycsb_overhead(benchmark):
    results = benchmark.pedantic(
        lambda: {config: config_throughput(
            config, DEFAULT_RECORDS, DEFAULT_OPS)["throughput"]
                 for config in ("unmodified", "luks+tls")},
        rounds=1, iterations=1)
    ratio = results["luks+tls"] / results["unmodified"]
    # Paper: "a third of its original throughput".
    assert 0.15 <= ratio <= 0.50
    benchmark.extra_info["fraction_of_baseline"] = round(ratio, 3)


def test_encryption_split_tls_dominates(benchmark, rows_of,
                                        write_artifact):
    rows = benchmark.pedantic(lambda: rows_of(ABLATION_ENCRYPTION),
                              rounds=1, iterations=1)
    write_artifact("ablation_encryption.txt")
    results = {row["config"]: row["throughput"] for row in rows}
    # The paper's attribution: TLS, not at-rest crypto, dominates.
    tls_cost = results["plaintext"] - results["tls-only"]
    luks_cost = results["plaintext"] - results["luks-only"]
    assert tls_cost > 4 * luks_cost
    assert results["luks+tls"] <= results["tls-only"]
    benchmark.extra_info.update(
        {k: round(v, 1) for k, v in results.items()})
