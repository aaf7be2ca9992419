"""Tests for the simulated block device and faults on it."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DeviceFullError, DeviceIOError
from repro.device.block_device import SimulatedBlockDevice
from repro.device.faults import FaultPlan
from repro.device.latency import INTEL_750_SSD, ZERO


class TestBasicIO:
    def test_write_read_roundtrip(self):
        dev = SimulatedBlockDevice(1024)
        dev.write(10, b"hello")
        assert dev.read(10, 5) == b"hello"

    def test_unwritten_reads_zero(self):
        dev = SimulatedBlockDevice(64)
        assert dev.read(0, 4) == b"\x00" * 4

    def test_overwrite(self):
        dev = SimulatedBlockDevice(64)
        dev.write(0, b"aaaa")
        dev.write(2, b"bb")
        assert dev.read(0, 4) == b"aabb"

    def test_write_beyond_capacity(self):
        dev = SimulatedBlockDevice(8)
        with pytest.raises(DeviceFullError):
            dev.write(5, b"toolong")

    def test_read_beyond_capacity(self):
        dev = SimulatedBlockDevice(8)
        with pytest.raises(DeviceIOError):
            dev.read(5, 10)

    def test_negative_offset(self):
        dev = SimulatedBlockDevice(8)
        with pytest.raises(DeviceFullError):
            dev.write(-1, b"x")

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            SimulatedBlockDevice(0)

    def test_counters(self):
        dev = SimulatedBlockDevice(64)
        dev.write(0, b"abcd")
        dev.read(0, 2)
        dev.flush()
        assert (dev.writes, dev.reads, dev.flushes) == (1, 1, 1)
        assert (dev.bytes_written, dev.bytes_read) == (4, 2)


class TestDurability:
    def test_crash_loses_unflushed(self):
        dev = SimulatedBlockDevice(64)
        dev.write(0, b"data")
        FaultPlan(dev).power_loss()
        assert dev.read(0, 4) == b"\x00" * 4

    def test_flush_makes_durable(self):
        dev = SimulatedBlockDevice(64)
        dev.write(0, b"data")
        dev.flush()
        FaultPlan(dev).power_loss()
        assert dev.read(0, 4) == b"data"

    def test_partial_durability(self):
        dev = SimulatedBlockDevice(64)
        dev.write(0, b"aaaa")
        dev.flush()
        dev.write(0, b"bbbb")
        assert dev.read(0, 4) == b"bbbb"
        FaultPlan(dev).power_loss()
        assert dev.read(0, 4) == b"aaaa"


class TestLatencyAccounting:
    def test_write_charges_time(self):
        clock = SimClock()
        dev = SimulatedBlockDevice(1024, clock=clock,
                                   latency=INTEL_750_SSD)
        dev.write(0, b"x" * 100)
        expected = INTEL_750_SSD.write_cost(100)
        assert clock.now() == pytest.approx(expected)

    def test_flush_charges_fsync(self):
        clock = SimClock()
        dev = SimulatedBlockDevice(1024, clock=clock,
                                   latency=INTEL_750_SSD)
        dev.flush()
        assert clock.now() == pytest.approx(INTEL_750_SSD.fsync)

    def test_zero_model_free(self):
        clock = SimClock()
        dev = SimulatedBlockDevice(1024, clock=clock, latency=ZERO)
        dev.write(0, b"x" * 100)
        dev.flush()
        assert clock.now() == 0.0


class TestFaultInjection:
    def test_countdown_fault(self):
        dev = SimulatedBlockDevice(64)
        plan = FaultPlan(dev)
        dev.write(0, b"ok")
        plan.fail("write")
        with pytest.raises(DeviceIOError):
            dev.write(0, b"boom")
        dev.write(0, b"recovered")  # one-shot

    def test_immediate_fault(self):
        dev = SimulatedBlockDevice(64)
        FaultPlan(dev).fail("write")
        with pytest.raises(DeviceIOError):
            dev.write(0, b"x")

    def test_failed_write_leaves_data_untouched(self):
        dev = SimulatedBlockDevice(64)
        plan = FaultPlan(dev)
        dev.write(0, b"good")
        plan.fail("write")
        with pytest.raises(DeviceIOError):
            dev.write(0, b"bad!")
        assert dev.read(0, 4) == b"good"

    def test_negative_countdown(self):
        with pytest.raises(ValueError):
            FaultPlan(SimulatedBlockDevice(64)).cut(-1)
