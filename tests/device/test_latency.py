"""Tests for latency models."""

import pytest

from repro.device.latency import (
    HDD,
    INTEL_750_SSD,
    NVM,
    PRESETS,
    ZERO,
    LatencyModel,
)


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
