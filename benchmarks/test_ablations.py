"""Ablation benchmarks over the compliance-spectrum design choices."""

from repro.bench.ablation import (
    ABLATION_AUDIT_BATCH,
    ABLATION_DEVICES,
    ABLATION_ERASURE_PROPAGATION,
    ABLATION_FSYNC,
    GDPR_SLOWDOWN,
)


def test_fsync_policy_spectrum(benchmark, rows_of, write_artifact):
    rows = benchmark.pedantic(lambda: rows_of(ABLATION_FSYNC),
                              rounds=1, iterations=1)
    write_artifact("ablation_fsync.txt")
    results = {row["appendfsync"]: row["throughput"] for row in rows}
    # Strictness ordering: no AOF > appendfsync=no > everysec > always.
    assert results[None] > results["no"]
    assert results["no"] >= results["everysec"]
    assert results["everysec"] > results["always"]
    benchmark.extra_info.update(
        {str(k): round(v, 1) for k, v in results.items()})


def test_audit_batch_interval_tradeoff(benchmark, rows_of, write_artifact):
    rows = benchmark.pedantic(lambda: rows_of(ABLATION_AUDIT_BATCH),
                              rounds=1, iterations=1)
    write_artifact("ablation_audit_batch.txt")
    # Larger batch window -> more throughput, more exposure: the paper's
    # real-time vs eventual compliance trade-off in one table.
    throughputs = [r["throughput"] for r in rows]
    assert throughputs == sorted(throughputs)
    assert rows[0]["records_at_risk"] == 0          # sync: nothing at risk
    assert rows[-1]["records_at_risk"] > 0           # batch: window exposed
    exposures = [r["worst_case_exposure"] for r in rows]
    assert exposures == sorted(exposures)            # bigger window, more loss
    # The paper's "once every second" point recovers >= 6x over sync.
    sync_tp = rows[0]["throughput"]
    onesec_tp = next(r["throughput"] for r in rows
                     if r["interval"] == 1.0)
    assert onesec_tp / sync_tp >= 6.0
    benchmark.extra_info["sync_tp"] = round(sync_tp, 1)
    benchmark.extra_info["batch1s_tp"] = round(onesec_tp, 1)


def test_device_classes_for_strict_logging(benchmark, rows_of,
                                           write_artifact):
    rows = benchmark.pedantic(lambda: rows_of(ABLATION_DEVICES),
                              rounds=1, iterations=1)
    write_artifact("ablation_devices.txt")
    results = {row["device"].name: row["throughput"] for row in rows}
    # Section 5.1: NVM makes strict (synchronous) logging affordable.
    assert results["nvm-3dxpoint"] > 5 * results["intel-750-ssd"]
    assert results["intel-750-ssd"] > 5 * results["hdd-7200rpm"]
    benchmark.extra_info.update(
        {k: round(v, 1) for k, v in results.items()})


def test_erasure_propagation_across_replicas(benchmark, rows_of,
                                             write_artifact):
    rows = benchmark.pedantic(
        lambda: rows_of(ABLATION_ERASURE_PROPAGATION),
        rounds=1, iterations=1)
    write_artifact("ablation_erasure_propagation.txt")
    # The horizon tracks the slowest replica's delay (Art. 17 reaches
    # replicas only as fast as replication does).
    for row in rows:
        assert row["erasure_horizon"] >= row["delay"] * 0.9
        assert row["erasure_horizon"] <= row["delay"] * 2 + 0.01
    horizons = [r["erasure_horizon"] for r in rows]
    assert horizons == sorted(horizons)
    benchmark.extra_info.update(
        {f"delay_{r['delay']}": round(r["erasure_horizon"], 4)
         for r in rows})


def test_gdpr_strict_slowdown_headline(benchmark, rows_of, write_artifact):
    rows = benchmark.pedantic(lambda: rows_of(GDPR_SLOWDOWN),
                              rounds=1, iterations=1)
    write_artifact("gdpr_slowdown.txt")
    results = {row["config"]: row["value"] for row in rows}
    # The paper's abstract: strict synchronous logging costs ~20x.
    assert 12 <= results["paper_20x_slowdown"] <= 30
    # The full strict GDPR stack (second fsync + crypto + ACL + index)
    # is costlier still.
    assert results["slowdown_x"] > results["paper_20x_slowdown"]
    benchmark.extra_info["paper_20x"] = round(
        results["paper_20x_slowdown"], 1)
    benchmark.extra_info["full_stack_x"] = round(results["slowdown_x"], 1)
