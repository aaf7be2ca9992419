"""Section 4.3 micro-benchmark: deleted data persisting in the AOF.

Paper: "in Redis AOF persistence model, any deleted data persists in AOF
until its compaction"; an hourly rewrite bounds the persistence of deleted
personal data to one hour.
"""

from repro.bench.micro import MICRO_AOF_PERSISTENCE, MICRO_REWRITE_COST


def test_deleted_data_persists_until_compaction(benchmark, rows_of,
                                                write_artifact):
    rows = benchmark.pedantic(lambda: rows_of(MICRO_AOF_PERSISTENCE),
                              rounds=1, iterations=1)
    write_artifact("micro_aof_persistence.txt")
    probe = {row["property"]: row["value"] for row in rows}
    # The paper's finding...
    assert probe["in AOF immediately after DEL"] is True
    # ...and compaction purges it.
    assert probe["in AOF after periodic rewrite"] is False
    # Hourly compaction bounds persistence to the hour boundary.
    assert probe["seconds until purged"] is not None
    assert probe["seconds until purged"] <= 3600.0 + 60.0
    benchmark.extra_info["purge_seconds"] = probe["seconds until purged"]


def test_rewrite_cost_grows_with_dataset(benchmark, rows_of,
                                         write_artifact):
    """Why Redis does not compact per delete: rewrite cost is O(dataset),
    which motivates the paper's periodic-compaction compromise."""
    rows = benchmark.pedantic(lambda: rows_of(MICRO_REWRITE_COST),
                              rounds=1, iterations=1)
    write_artifact("micro_rewrite_cost.txt")
    costs = [row["rewrite_seconds"] for row in rows]
    assert costs[-1] > costs[0] * 5  # clearly superlinear in keys
    benchmark.extra_info.update(
        {f"keys_{row['live_keys']}": round(row["rewrite_seconds"], 6)
         for row in rows})
