"""Tests for the `python -m repro.bench` command-line driver.

The ``*_small`` / ``*_subset`` tests read the experiment's one shared
smoke run (``smoke_stdout`` in ``conftest.py``)."""

import pytest

from repro.bench.__main__ import EXPERIMENTS, main


class TestCli:
    def test_table1_subset(self, smoke_stdout):
        out = smoke_stdout("table1")
        assert "Table 1" in out
        assert "31/99" in out

    def test_micro_subset_small_scale(self, smoke_stdout):
        out = smoke_stdout("micro")
        assert "logging mechanisms" in out
        assert "stunnel" in out

    def test_figure2_small(self, smoke_stdout):
        out = smoke_stdout("figure2")
        assert "total_keys" in out
        assert "paper_lazy_s" in out

    def test_scaling_small(self, smoke_stdout):
        out = smoke_stdout("scaling")
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

    def test_resharding_small(self, smoke_stdout):
        out = smoke_stdout("resharding")
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

    def test_replication_small(self, smoke_stdout):
        out = smoke_stdout("replication")
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

    def test_backends_small(self, smoke_stdout):
        out = smoke_stdout("backends")
        assert "per-GDPR-feature overhead" in out
        assert "redislike" in out and "relational" in out
        assert "full-gdpr" in out and "of baseline" in out

    def test_backends_relative_penalty_asymmetry(self):
        from repro.bench.backends import BACKENDS
        from repro.bench.reporting import sweep
        rows = sweep(BACKENDS, 40, 100,
                     pins={"feature": ("baseline", "full-gdpr")})
        tput = {(row["engine"], row["feature"]): row["throughput"]
                for row in rows}
        assert len(tput) == len(rows) == 4
        # Stock KV is faster; full compliance costs it relatively more
        # (the paper's Redis-vs-Postgres asymmetry).
        assert tput["redislike", "baseline"] \
            > tput["relational", "baseline"]
        assert tput["redislike", "baseline"] \
            / tput["redislike", "full-gdpr"] \
            > tput["relational", "baseline"] \
            / tput["relational", "full-gdpr"]

    def test_features_without_baseline_print_dashes(self, capsys):
        """No baseline row was swept, so there is nothing to divide by:
        the ratio columns used to print 0.00 / 0.00x."""
        assert main(["backends", "--records", "40", "--ops", "100",
                     "--features", "full-gdpr,fast-gdpr"]) == 0
        table = capsys.readouterr().out.split("\n\n")[0].splitlines()
        rule = next(number for number, line in enumerate(table)
                    if line.startswith("------"))
        rows = [line.split() for line in table[rule + 1:]]
        assert [row[:2] for row in rows] == [
            [engine, feature] for engine in ("redislike", "relational")
            for feature in ("full-gdpr", "fast-gdpr")]
        assert all(row[3:] == ["-", "-"] for row in rows)

    @pytest.mark.parametrize("features", [",", "", "baseline,warp"])
    def test_bad_features_are_usage_errors(self, features, capsys):
        """An empty list printed a header-only table and exited 0; an
        unknown name exited 1 through a bare SystemExit."""
        with pytest.raises(SystemExit) as exit_info:
            main(["backends", "--features", features])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "argument --features:" in err.splitlines()[-1]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["warpdrive"])

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {"table1", "figure1", "figure2",
                                    "micro", "ablations", "scaling",
                                    "resharding", "concurrency",
                                    "hockey_stick", "workers",
                                    "workers_skew",
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
