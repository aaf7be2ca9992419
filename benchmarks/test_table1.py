"""Table 1: GDPR articles mapped to storage features, plus the paper's
headline statistic (31 of 99 articles concern storage) and the
compliance-spectrum assessments of section 3.2."""

from repro.bench.table1 import assessments, headline_statistics
from repro.gdpr.articles import TABLE1, StorageFeature, feature_demand


def test_table1_regenerates(benchmark, write_artifact):
    text = benchmark.pedantic(lambda: write_artifact("table1.txt"),
                              rounds=1, iterations=1)
    assert len(TABLE1) == 13
    for fragment in ("Purpose limitation", "Right to be forgotten",
                     "Records of processing activity",
                     "Transfers subject to safeguards"):
        assert fragment in text


def test_headline_statistics(benchmark):
    stats = benchmark.pedantic(headline_statistics, rounds=1,
                               iterations=1)
    # "more than 30% of GDPR articles are related to storage"
    assert stats["storage_related_articles"] == 31
    assert stats["total_articles"] == 99
    assert stats["storage_share"] > 0.30
    benchmark.extra_info.update(
        {k: v for k, v in stats.items() if not isinstance(v, dict)})


def test_feature_demand_shape(benchmark):
    demand = benchmark.pedantic(feature_demand, rounds=1, iterations=1)
    # Indexing and deletion are the most-demanded narrow features;
    # every feature is demanded by at least the two "All" rows.
    assert demand[StorageFeature.INDEXING] >= 4
    assert all(count >= 2 for count in demand.values())


def test_compliance_spectrum(benchmark, write_artifact):
    results = benchmark.pedantic(assessments, rounds=1, iterations=1)
    write_artifact("table1_comparison.txt")
    baseline = results["redis-baseline"]
    strict = results["gdpr-strict"]
    eventual = results["gdpr-eventual"]
    # Unmodified Redis fails the security articles outright.
    assert baseline.articles_compliant < 13
    assert not baseline.strict
    # The strict GDPR store passes everything in real time.
    assert strict.strict
    # The eventual configuration is compliant but not strict.
    assert eventual.articles_compliant == 13
    assert not eventual.strict
    benchmark.extra_info["baseline_compliant"] = \
        baseline.articles_compliant
    benchmark.extra_info["strict_compliant"] = strict.articles_compliant
