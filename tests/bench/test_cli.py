"""Tests for the `python -m repro.bench` command-line driver."""

import pytest

from repro.bench.__main__ import EXPERIMENTS, main


class TestCli:
    def test_table1_subset(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "31/99" in out

    def test_micro_subset_small_scale(self, capsys):
        assert main(["micro", "--records", "50", "--ops", "100"]) == 0
        out = capsys.readouterr().out
        assert "logging mechanisms" in out
        assert "stunnel" in out

    def test_figure2_small(self, capsys):
        assert main(["figure2", "--records", "20", "--ops", "20"]) == 0
        out = capsys.readouterr().out
        assert "total_keys" in out
        assert "paper_lazy_s" in out

    def test_scaling_small(self, capsys):
        assert main(["scaling", "--records", "40", "--ops", "80"]) == 0
        out = capsys.readouterr().out
        assert "shards" in out and "depth" in out
        assert "erasure fan-out" in out

    def test_scaling_depth8_beats_depth1(self, capsys):
        from repro.bench.reporting import sweep
        from repro.bench.scaling import SCALING
        cells = sweep(SCALING, 60, 150, pins={"shards": 2})
        by_depth = {(c["gdpr"], c["depth"]): c["throughput"]
                    for c in cells}
        assert len(by_depth) == len(cells) == 4
        for gdpr in (False, True):
            assert by_depth[(gdpr, 8)] > by_depth[(gdpr, 1)]

    def test_pin_flag_pins_every_scenario_with_that_axis(self, capsys):
        """``--shards`` used to reach only `concurrency` and
        `replication`; `scaling --shards 2` silently printed 1/2/4."""
        assert main(["scaling", "--shards", "2", "--records", "40",
                     "--ops", "80"]) == 0
        out = capsys.readouterr().out
        tables = out.split("\ncross-shard Art. 17 erasure fan-out:\n")
        assert len(tables) == 2
        for table, expected_rows in zip(tables, (4, 1)):
            lines = table.splitlines()
            rule = next(number for number, line in enumerate(lines)
                        if line.startswith("------"))
            rows = [line.split() for line in lines[rule + 1:] if line]
            assert len(rows) == expected_rows
            assert {row[0] for row in rows} == {"2"}

    def test_resharding_small(self, capsys):
        assert main(["resharding", "--records", "50",
                     "--ops", "90"]) == 0
        out = capsys.readouterr().out
        assert "live slot migration" in out
        assert "drag" in out

    def test_resharding_moves_data_and_recovers(self):
        from repro.bench.scaling import run_resharding
        result = run_resharding(record_count=60, operation_count=120)
        assert result["slots_moved"] > 0
        assert result["keys_moved"] > 0
        assert result["bytes_moved"] > 0
        assert result["moved_redirects"] > 0
        # Migration costs throughput while it runs...
        assert result["during"] < result["steady_before"]
        assert result["drag"] \
            == result["during"] / result["steady_before"]
        # ...but the cluster recovers once the topology settles (the new
        # shard shares the load, so 'after' is at worst marginally off).
        assert result["steady_after"] > 0.8 * result["steady_before"]

    def test_replication_small(self, capsys):
        assert main(["replication", "--shards", "2", "--replicas", "2",
                     "--records", "30", "--ops", "60"]) == 0
        out = capsys.readouterr().out
        assert "erasure horizon" in out
        assert "hz p99 ms" in out
        assert "Art. 17 erasure through replicas" in out

    def test_replication_horizon_tracks_delay(self):
        from repro.bench.scaling import run_replication_cell
        slow = run_replication_cell(2, 2, 0.010, gdpr=False,
                                    record_count=40,
                                    operation_count=80)
        fast = run_replication_cell(2, 2, 0.001, gdpr=False,
                                    record_count=40,
                                    operation_count=80)
        assert slow["horizons"] > 0 and fast["horizons"] > 0
        # The horizon is the replication delay made visible: ten times
        # the delay, ten times the compliance window.
        assert slow["horizon_p99"] > 5 * fast["horizon_p99"]
        assert slow["horizon_p99"] == pytest.approx(0.010, rel=0.3)
        # Primary-side throughput does not depend on the replica delay.
        assert slow["throughput"] == pytest.approx(fast["throughput"])

    def test_backends_small(self, capsys):
        assert main(["backends", "--records", "30", "--ops", "80"]) == 0
        out = capsys.readouterr().out
        assert "per-GDPR-feature overhead" in out
        assert "redislike" in out and "relational" in out
        assert "full-gdpr" in out and "of baseline" in out

    def test_backends_relative_penalty_asymmetry(self):
        from repro.bench.backends import headline_comparison, run_backends
        headline = headline_comparison(run_backends(
            record_count=40, operation_count=100,
            features=("baseline", "full-gdpr")))
        # Stock KV is faster; full compliance costs it relatively more
        # (the paper's Redis-vs-Postgres asymmetry).
        assert headline["redislike_baseline_ops"] \
            > headline["relational_baseline_ops"]
        assert headline["redislike_slowdown_x"] \
            > headline["relational_slowdown_x"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["warpdrive"])

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {"table1", "figure1", "figure2",
                                    "micro", "ablations", "scaling",
                                    "resharding", "concurrency",
                                    "workers", "workers_skew",
                                    "replication", "backends",
                                    "tiering", "tenancy"}


class TestSizeArguments:
    """Sizes below the smallest runnable one are a usage error (exit 2),
    not a traceback from deep inside a generator."""

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    @pytest.mark.parametrize("flag, value", [
        ("--records", "0"), ("--records", "-5"), ("--shards", "0"),
        ("--clients", "0"), ("--cores", "-1"), ("--ops", "-1"),
        ("--replicas", "0"), ("--replicas", "-1"), ("--records", "many"),
    ])
    def test_rejected_for_every_experiment(self, experiment, flag, value,
                                           capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([experiment, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}:" in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_zero_ops_still_runs(self, capsys):
        assert main(["micro", "--records", "20", "--ops", "0"]) == 0
        assert "logging mechanisms" in capsys.readouterr().out
