"""Tests for latency models."""

import pytest

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.device.latency import (
    CRYPTO_COST_PER_BYTE,
    HDD,
    INTEL_750_SSD,
    LUKS_SSD,
    NVM,
    PRESETS,
    ZERO,
    LatencyModel,
)
from repro.kvstore import KeyValueStore, StoreConfig


class TestCosts:
    def test_write_cost_includes_per_byte(self):
        assert INTEL_750_SSD.write_cost(1000) == pytest.approx(
            INTEL_750_SSD.write_syscall + 1000 * INTEL_750_SSD.per_byte_write)

    def test_read_cost(self):
        assert HDD.read_cost(0) == HDD.read_syscall

    def test_zero_model_is_free(self):
        assert ZERO.write_cost(1 << 20) == 0.0
        assert ZERO.read_cost(1 << 20) == 0.0
        assert ZERO.fsync == 0.0

    def test_scaled(self):
        double = INTEL_750_SSD.scaled(2.0)
        assert double.fsync == pytest.approx(2 * INTEL_750_SSD.fsync)
        assert double.write_syscall == pytest.approx(
            2 * INTEL_750_SSD.write_syscall)

    def test_scaled_name(self):
        assert INTEL_750_SSD.scaled(2.0, name="fast").name == "fast"
        assert "x2" in INTEL_750_SSD.scaled(2.0).name


class TestPresetOrdering:
    def test_fsync_ordering_matches_technology(self):
        # Section 5.1: NVM persistence barriers are far cheaper than SSD
        # fsync, which is far cheaper than a disk rotation.
        assert NVM.fsync < INTEL_750_SSD.fsync < HDD.fsync

    def test_nvm_fsync_is_microseconds(self):
        assert NVM.fsync < 10e-6

    def test_hdd_fsync_is_milliseconds(self):
        assert HDD.fsync >= 1e-3

    def test_presets_registry(self):
        assert PRESETS["intel-750-ssd"] is INTEL_750_SSD
        assert set(PRESETS) == {"intel-750-ssd", "hdd-7200rpm",
                                "nvm-3dxpoint", "zero"}

    def test_model_frozen(self):
        with pytest.raises(AttributeError):
            setattr(INTEL_750_SSD, "fsync", 0.0)


class TestLuksPreset:
    @staticmethod
    def _run(latency):
        """One command stream into an ``always`` AOF on ``latency``,
        then one read of the log; the clock, bytes flushed and bytes
        read."""
        clock = SimClock()
        log = AppendLog(clock=clock, latency=latency)
        store = KeyValueStore(
            StoreConfig(appendonly=True, appendfsync="always",
                        aof_log_reads=True),
            clock=clock, aof_log=log)
        for i in range(20):
            store.execute("SET", f"k{i}", b"v" * (10 * i))
            store.execute("GET", f"k{i}")
        read = len(log.read_at(0, log.total_length // 2))
        return clock.now(), log.cached_length, read

    def test_luks_charges_the_cipher_on_every_byte_moved(self):
        plain, flushed, read = self._run(INTEL_750_SSD)
        luks, *moved = self._run(LUKS_SSD)
        assert moved == [flushed, read] and flushed > 0 and read > 0
        assert luks - plain == pytest.approx(
            CRYPTO_COST_PER_BYTE * (flushed + read), rel=1e-9, abs=0)

    def test_luks_is_the_ssd_with_the_cipher_on_each_byte(self):
        assert (LUKS_SSD.write_syscall, LUKS_SSD.read_syscall,
                LUKS_SSD.fsync) == (INTEL_750_SSD.write_syscall,
                                    INTEL_750_SSD.read_syscall,
                                    INTEL_750_SSD.fsync)
        for nbytes in (0, 1, 4096):
            assert LUKS_SSD.write_cost(nbytes) - INTEL_750_SSD.write_cost(
                nbytes) == pytest.approx(CRYPTO_COST_PER_BYTE * nbytes)
            assert LUKS_SSD.read_cost(nbytes) - INTEL_750_SSD.read_cost(
                nbytes) == pytest.approx(CRYPTO_COST_PER_BYTE * nbytes)

    def test_a_barrier_with_no_bytes_to_move_costs_the_same(self):
        clocks = []
        for latency in (INTEL_750_SSD, LUKS_SSD):
            log = AppendLog(clock=SimClock(), latency=latency)
            log.commit()
            clocks.append(log.clock.now())
        assert clocks == [INTEL_750_SSD.fsync] * 2

    def test_luks_is_not_a_swept_device(self):
        # ablation_device sweeps PRESETS; LUKS at rest is priced by
        # ablation_encryption alone.
        assert LUKS_SSD.name not in PRESETS
        assert LUKS_SSD not in PRESETS.values()
