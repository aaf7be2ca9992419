"""Tests for the fault plan: the one seam through which faults reach a
device."""

import pytest

from repro.common.errors import DeviceIOError
from repro.device.append_log import AppendLog
from repro.device.block_device import SimulatedBlockDevice
from repro.device.faults import FaultPlan, PowerLoss


def _durable_log(data=b"AAAA"):
    log = AppendLog()
    log.append(data)
    log.flush_and_fsync()
    return log


class TestFail:
    @pytest.mark.parametrize("op", ["append", "flush", "fsync"])
    def test_log_op_fails_once_without_effect(self, op):
        log = _durable_log()
        log.append(b"BBBB")
        plan = FaultPlan(log)
        plan.fail(op)
        run = {"append": lambda: log.append(b"CCCC"),
               "flush": log.flush, "fsync": log.fsync}[op]
        frontiers = (log.read_all(), log.cached_length, log.durable_length,
                     log.syscalls, log.fsyncs, log.clock.now())
        with pytest.raises(DeviceIOError):
            run()
        assert (log.read_all(), log.cached_length, log.durable_length,
                log.syscalls, log.fsyncs, log.clock.now()) == frontiers
        assert plan.steps == []
        run()                                   # the retry goes through
        assert plan.steps == [op]

    def test_log_rename_and_remove_fail_once_without_effect(self):
        log = _durable_log()
        log.open("part.1")
        plan = FaultPlan(log)
        plan.fail("rename")
        with pytest.raises(DeviceIOError):
            log.rename("part.2")
        assert log.files() == ["appendonly.aof", "part.1"]
        plan.fail("remove")
        with pytest.raises(DeviceIOError):
            log.remove(["appendonly.aof"])
        assert log.files() == ["appendonly.aof", "part.1"]
        log.rename("part.2")
        log.remove(["appendonly.aof"])
        assert log.files() == ["part.2"]
        assert plan.steps == ["rename", "remove"]

    @pytest.mark.parametrize("op", ["write", "flush"])
    def test_block_op_fails_once_without_effect(self, op):
        dev = SimulatedBlockDevice(64)
        dev.write(0, b"good")
        plan = FaultPlan(dev)
        plan.fail(op)
        run = {"write": lambda: dev.write(0, b"bad!"), "flush": dev.flush}[op]
        with pytest.raises(DeviceIOError):
            run()
        assert (dev.writes, dev.flushes, dev.clock.now()) == (1, 0, 0.0)
        plan.power_loss()
        assert dev.read(0, 4) == b"\x00" * 4     # nothing reached the disk
        run()
        assert plan.steps == [op]


class TestCut:
    def test_cut_counts_operations_across_devices(self):
        log, dev = AppendLog(), SimulatedBlockDevice(64)
        plan = FaultPlan(log, dev)
        log.append(b"AAAA")
        plan.cut(3)
        dev.write(0, b"data")
        log.flush()
        dev.flush()
        with pytest.raises(PowerLoss, match="fsync"):
            log.fsync()
        assert plan.steps == ["append", "write", "flush", "flush"]
        assert log.read_all() == b""             # flushed, never synced
        assert dev.read(0, 4) == b"data"         # its flush came first
        log.fsync()                              # the cut fired once
        assert plan.steps[-1] == "fsync"

    def test_cut_at_a_named_op_loses_power_on_every_device(self):
        log, dev = _durable_log(), SimulatedBlockDevice(64)
        plan = FaultPlan(log, dev)
        plan.cut("fsync")
        log.append(b"BBBB")
        log.flush()
        dev.write(0, b"data")
        with pytest.raises(PowerLoss):
            log.fsync()
        assert log.read_all() == b"AAAA"
        assert log.durable_length == log.cached_length == 4
        assert dev.read(0, 4) == b"\x00" * 4
        assert plan.steps == ["append", "flush", "write"]

    def test_power_loss_reaches_every_file_of_a_log(self):
        log = _durable_log()
        log.append(b"BB")
        log.open("part.1")
        log.append(b"CC")
        log.flush()
        FaultPlan(log).power_loss()
        assert log.read_all() == b""
        assert log.read_all("appendonly.aof") == b"AAAA"


class TestTear:
    def test_tear_hits_the_open_file(self):
        log = _durable_log(b"ABCDEFGH")
        log.open("part.1")
        log.append(b"WXYZ")
        FaultPlan(log).tear(2)
        assert log.read_all() == b"WX" + bytes([ord("Y") ^ 0xFF,
                                                ord("Z") ^ 0xFF])
        assert log.read_all("appendonly.aof") == b"ABCDEFGH"


class TestInputs:
    @pytest.mark.parametrize("arm", [
        lambda plan: plan.fail("write"),
        lambda plan: plan.cut("write"),
        lambda plan: plan.fail("fsnyc"),
        lambda plan: plan.cut(-1)])
    def test_unknown_op_or_negative_cut_is_refused(self, arm):
        with pytest.raises(ValueError):
            arm(FaultPlan(AppendLog()))

    def test_a_device_takes_one_plan(self):
        log, dev = AppendLog(), SimulatedBlockDevice(64)
        FaultPlan(log)
        with pytest.raises(ValueError):
            FaultPlan(dev, log)
        assert dev.faults is None                # refused whole
