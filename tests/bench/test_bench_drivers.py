"""Fast shape checks over the benchmark drivers (tiny scales).

The real assertions against paper numbers live in ``benchmarks/``; these
tests guarantee the drivers stay runnable and structurally sound under
plain ``pytest tests/``.
"""

import pytest

from repro.bench.calibration import (
    FIGURE1_CONFIGS,
    make_aof_sync,
    make_figure1_system,
    make_luks_tls,
    make_unmodified,
)
from repro.bench.figure1 import FIGURE1, PHASE_PLAN, run_config
from repro.bench.figure2 import (
    FIGURE2,
    doubling_ratios,
    measure_erasure_delay,
    populate_expiring,
)
from repro.bench.reporting import (
    Axis,
    Scenario,
    on_off,
    render,
    render_table,
    scaled,
    sweep,
)
from repro.bench.table1 import headline_statistics
from repro.common.clock import SimClock
from repro.kvstore import KeyValueStore, StoreConfig
from repro.net.tls import PROXIED_BANDWIDTH_BPS


class TestSystemFactories:
    def test_unmodified_has_no_aof(self):
        system = make_unmodified()
        assert system.store.aof is None
        assert system.client is not None

    def test_aof_sync_logs_reads(self):
        system = make_aof_sync()
        assert system.store.aof is not None
        assert system.store.aof.log_reads is True

    def test_luks_tls_is_the_unlogged_store_behind_stunnel(self):
        system = make_luks_tls()
        assert system.store.aof is None
        assert system.channel.bandwidth_bps == PROXIED_BANDWIDTH_BPS

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            make_figure1_system("quantum")

    def test_all_figure1_configs_buildable(self):
        for config in FIGURE1_CONFIGS:
            assert make_figure1_system(config).store is not None


class TestFigure1Driver:
    def test_phase_plan_matches_figure(self):
        assert [label for label, _, _ in PHASE_PLAN] == \
            ["Load-A", "A", "B", "C", "D", "Load-E", "E", "F"]

    def test_run_config_tiny(self):
        throughputs = run_config("unmodified", record_count=20,
                                 operation_count=30)
        assert list(throughputs) == [p for p, _, _ in PHASE_PLAN]
        assert all(tp > 0 for tp in throughputs.values())

    def test_table_renders(self, smoke_rows):
        table = render(FIGURE1, smoke_rows(FIGURE1))
        assert "Load-A" in table and "phase" in table


class TestFigure2Driver:
    def test_populate_mix(self):
        store = KeyValueStore(clock=SimClock())
        short = populate_expiring(store, 100, short_fraction=0.2)
        assert short == 20
        assert store.databases[0].volatile_count == 100

    def test_measurement_fields(self):
        m = measure_erasure_delay(500, strategy="fullscan")
        assert m.completed
        assert m.short_keys == 100
        assert m.erase_seconds < 1.0

    def test_lazy_small_completes(self):
        m = measure_erasure_delay(500, strategy="lazy")
        assert m.completed
        assert m.erase_seconds > 1.0

    def test_safety_cap(self):
        m = measure_erasure_delay(2_000, strategy="lazy", sim_cap=1.0)
        assert not m.completed

    def test_run_figure2_structure(self):
        rows = sweep(FIGURE2, 0, 0, pins={"total_keys": (500, 1000)})
        assert [row["total_keys"] for row in rows] == [500, 1000]
        assert "total_keys" in render(FIGURE2, rows)

    def test_doubling_ratios(self):
        rows = sweep(FIGURE2, 0, 0,
                     pins={"total_keys": (500, 1000, 2000)})
        ratios = doubling_ratios(rows)
        assert len(ratios) == 2
        assert all(r > 0 for _, r in ratios)

    def test_default_sizes_match_paper(self):
        (axis,) = FIGURE2.axes
        assert axis.full == (1_000, 2_000, 4_000, 8_000, 16_000,
                             32_000, 64_000, 128_000)
        assert axis.values == axis.full[:5]


class TestReporting:
    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("-")


def _toy_point(fast, size, mode, level, gain, record_count):
    return {"seconds": size * gain / record_count}


class TestDeclaredSweep:
    """`sweep`/`render` over a toy declaration: product order, `--full`
    selection, pinning, compound axes and multi-row measurements are
    the harness's business, not any scenario's."""

    TOY = Scenario(
        title="toy",
        axes=(Axis("fast", (False, True)),
              Axis("size", (1, 2), full=(1, 2, 3)),
              Axis(("mode", "level"), (("a", 1), ("b", 2)))),
        measure=_toy_point,
        fixed={"gain": 2.0},
        sizes=lambda records, ops: {"record_count": records // 10},
        columns=(("size", "size"), ("fast", on_off("fast")),
                 ("mode", "mode"), ("ms", scaled("seconds", 1e3, 2)),
                 ("share", lambda row, rows:
                  f"{row['seconds'] / max(r['seconds'] for r in rows):.1f}")),
        summary=lambda rows: f"{len(rows)} points",
    )

    def test_product_in_declared_order_first_axis_outermost(self):
        rows = sweep(self.TOY, 100, 0)
        assert [(r["fast"], r["size"], r["mode"], r["level"])
                for r in rows] == [
            (fast, size, mode, level)
            for fast in (False, True) for size in (1, 2)
            for mode, level in (("a", 1), ("b", 2))]
        # Coordinates, stated constants and measured values, as measured.
        assert rows[-1] == {"fast": True, "size": 2, "mode": "b",
                            "level": 2, "gain": 2.0, "seconds": 0.4}

    def test_full_widens_only_axes_that_declare_it(self):
        rows = sweep(self.TOY, 100, 0, full=True)
        assert sorted({r["size"] for r in rows}) == [1, 2, 3]
        assert len(rows) == 2 * 3 * 2

    def test_pin_to_several_values_sweeps_them_in_the_order_given(self):
        rows = sweep(self.TOY, 100, 0, pins={"size": (3, 1)})
        assert [r["size"] for r in rows if r["mode"] == "a"] \
            == [3, 1, 3, 1]
        assert len(rows) == 2 * 2 * 2

    def test_pin_replaces_the_named_axis_and_ignores_other_names(self):
        rows = sweep(self.TOY, 100, 0, full=True,
                     pins={"size": 7, "cores": 4, "fast": None})
        assert {r["size"] for r in rows} == {7}
        assert {r["fast"] for r in rows} == {False, True}
        assert len(rows) == 4

    def test_measurement_may_yield_several_rows(self):
        demo = Scenario(title="demo", axes=(),
                        measure=lambda: [{"phase": 1}, {"phase": 2}],
                        columns=(("phase", "phase"),))
        rows = sweep(demo, 300, 800)
        assert rows == [{"phase": 1}, {"phase": 2}]
        assert render(demo, rows).splitlines() == ["phase", "-----",
                                                   "1", "2"]

    def test_render_formats_cells_and_appends_summary(self):
        rows = sweep(self.TOY, 100, 0, pins={"size": 2})
        assert render(self.TOY, rows) == "\n".join([
            "size  fast  mode  ms      share",
            "----  ----  ----  ------  -----",
            "2     off   a     400.00  1.0",
            "2     off   b     400.00  1.0",
            "2     on    a     400.00  1.0",
            "2     on    b     400.00  1.0",
            "",
            "4 points"])


class TestHeadlineStats:
    def test_thirty_one_of_ninety_nine(self):
        stats = headline_statistics()
        assert stats["storage_related_articles"] == 31
        assert 0.31 <= stats["storage_share"] <= 0.32
        assert stats["table1_rows"] == 13


class TestConcurrencyScenario:
    """The acceptance shape of the open-loop `concurrency` scenario."""

    def _cell(self, clients, rate, shards=1, gdpr=False, seed=42):
        from repro.bench.scaling import run_concurrency_cell
        return run_concurrency_cell(
            shards, clients, rate, gdpr, record_count=40,
            operation_count=200, seed=seed)

    def test_throughput_rises_with_clients_to_the_ceiling(self):
        from repro.bench.calibration import BASE_COMMAND_CPU
        one = self._cell(clients=1, rate=80_000.0)
        four = self._cell(clients=4, rate=80_000.0)
        sixteen = self._cell(clients=16, rate=80_000.0)
        assert four["throughput"] > one["throughput"] * 1.4
        ceiling = 1.0 / BASE_COMMAND_CPU
        assert sixteen["throughput"] == pytest.approx(ceiling, rel=0.2)
        assert sixteen["throughput"] <= ceiling * 1.01

    def test_p99_queue_grows_past_saturation(self):
        below = self._cell(clients=8, rate=15_000.0)
        above = self._cell(clients=8, rate=80_000.0)
        assert above["p99_queue"] > 10 * max(below["p99_queue"], 1e-9)

    def test_same_seed_identical_cells(self):
        assert self._cell(clients=4, rate=60_000.0) \
            == self._cell(clients=4, rate=60_000.0)

    def test_gdpr_lowers_the_ceiling(self):
        off = self._cell(clients=8, rate=60_000.0, gdpr=False)
        on = self._cell(clients=8, rate=60_000.0, gdpr=True)
        assert on["throughput"] < off["throughput"]
