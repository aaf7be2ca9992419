"""Tests for the fault plan: the one seam through which faults reach a
device."""

import pytest

from repro.common.errors import DeviceIOError
from repro.device.append_log import AppendLog
from repro.device.faults import FaultPlan, PowerLoss
from tests.support import crashpoints


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


class TestCut:
    def test_cut_counts_operations_across_devices(self):
        log, other = AppendLog(), AppendLog(name="other.log")
        plan = FaultPlan(log, other)
        log.append(b"AAAA")
        plan.cut(4)
        other.append(b"data")
        log.flush()
        other.flush_and_fsync()
        with pytest.raises(PowerLoss, match="fsync"):
            log.fsync()
        assert plan.steps == ["append", "append", "flush", "flush", "fsync"]
        assert log.read_all() == b""             # flushed, never synced
        assert other.read_all() == b"data"       # its fsync came first
        with pytest.raises(PowerLoss):
            log.fsync()                          # dark until it reopens
        log.reopen(log.clock)
        log.fsync()                              # the cut fired once
        assert plan.steps[-1] == "fsync"

    def test_a_cut_loses_power_on_every_device(self):
        log, other = _durable_log(), AppendLog(name="other.log")
        plan = FaultPlan(log, other)
        plan.cut(4)                              # the first fsync
        log.append(b"BBBB")
        log.flush()
        other.append(b"data")
        other.flush()
        with pytest.raises(PowerLoss):
            other.fsync()
        assert log.read_all() == b"AAAA"
        assert log.durable_length == log.cached_length == 4
        assert other.read_all() == b""
        assert plan.steps == ["append", "flush", "append", "flush"]

    def test_power_loss_reaches_every_file_of_a_log(self):
        log = _durable_log()
        log.append(b"BB")
        log.open("part.1")
        log.append(b"CC")
        log.flush()
        FaultPlan(log).power_loss()
        assert log.read_all() == b""
        assert log.read_all("appendonly.aof") == b"AAAA"

    def test_a_cut_log_is_dark_until_it_reopens(self):
        log = AppendLog()
        plan = FaultPlan(log)
        log.append(b"A")
        log.flush()
        log.fsync()
        plan.cut(0)
        for data in (b"B", b"C"):
            with pytest.raises(PowerLoss):
                log.append(data)
        with pytest.raises(PowerLoss):
            log.flush_and_fsync()
        assert log.read_durable() == log.read_all() == b"A"
        assert plan.steps == ["append", "flush", "fsync"]
        log.reopen(log.clock)
        log.append(b"D")
        log.flush_and_fsync()
        assert log.read_durable() == b"AD"
        assert plan.steps == ["append", "flush", "fsync"] * 2

    def test_a_dark_log_takes_no_step_and_reopens_alone(self):
        log, other = _durable_log(), _durable_log(b"ZZ")
        log.open("part.1")
        log.append(b"BB")
        log.flush()
        plan = FaultPlan(log, other)
        plan.power_loss()
        state = ({name: log.read_all(name) for name in log.files()},
                 log.appends, log.syscalls, log.fsyncs, log.clock.now())
        for op in AppendLog.FAULT_OPS:
            with pytest.raises(PowerLoss, match=f"appendonly.aof.{op}"):
                TestEveryOp.run_op(log, op)
        assert ({name: log.read_all(name) for name in log.files()},
                log.appends, log.syscalls, log.fsyncs,
                log.clock.now()) == state
        assert plan.steps == []
        other.reopen(other.clock)
        other.append(b"Y")                      # relit: the other is not
        with pytest.raises(PowerLoss):
            log.append(b"Y")
        assert plan.steps == ["append"]


class TestEveryOp:
    """The plan sees every operation in ``AppendLog.FAULT_OPS``, the one
    op set, and a cut before any of them stops it on any log."""

    @staticmethod
    def run_op(log, op):
        {"append": lambda: log.append(b"BB"), "flush": log.flush,
         "fsync": log.fsync, "rename": lambda: log.rename("part.1"),
         "truncate": lambda: log.truncate(0),
         "remove": lambda: log.remove(["appendonly.aof"])}[op]()

    def _run_every_op(self, log):
        for op in AppendLog.FAULT_OPS:
            if op == "rename":
                log.open("rewrite.tmp")
            self.run_op(log, op)

    def test_every_state_changing_op_is_one_step(self):
        log = _durable_log()
        plan = FaultPlan(log)
        self._run_every_op(log)
        assert plan.steps == list(AppendLog.FAULT_OPS)

    @pytest.mark.parametrize("op", AppendLog.FAULT_OPS)
    def test_a_cut_stops_the_op_before_it_runs(self, op):
        log, other = _durable_log(), _durable_log(b"ZZ")
        other.append(b"unsynced")
        other.flush()
        plan = FaultPlan(log, other)
        plan.cut(AppendLog.FAULT_OPS.index(op))
        with pytest.raises(PowerLoss, match=f"appendonly.aof.{op}"):
            self._run_every_op(log)
        ran = list(AppendLog.FAULT_OPS[:AppendLog.FAULT_OPS.index(op)])
        assert plan.steps == ran
        assert other.read_all() == b"ZZ"        # power lost on both logs
        assert "appendonly.aof" in log.files()  # the remove never ran

    def test_a_cut_at_zero_stops_the_next_op(self):
        log = _durable_log()
        log.append(b"BB")
        log.flush()
        plan = FaultPlan(log)
        plan.cut(0)
        with pytest.raises(PowerLoss, match="fsync"):
            log.fsync()
        assert (log.read_all(), plan.steps) == (b"AAAA", [])

    def test_an_armed_failure_hits_whichever_log_runs_the_op_first(self):
        log, other = AppendLog(), AppendLog(name="other.log")
        plan = FaultPlan(log, other)
        plan.fail("append")
        with pytest.raises(DeviceIOError, match="injected other.log.append"):
            other.append(b"data")
        log.append(b"AAAA")                     # the failure fired once
        other.append(b"data")
        assert (log.read_all(), other.read_all()) == (b"AAAA", b"data")
        assert plan.steps == ["append", "append"]

    def test_a_failure_is_no_power_loss(self):
        log = _durable_log()
        log.append(b"BB")
        log.flush()
        plan = FaultPlan(log)
        plan.fail("fsync")
        with pytest.raises(DeviceIOError) as raised:
            log.fsync()
        assert not isinstance(raised.value, PowerLoss)
        assert log.read_all() == b"AAAABB"      # nothing was lost
        assert (log.cached_length, log.durable_length) == (6, 4)


class TestTear:
    def test_tear_hits_every_attached_log(self):
        log, other = _durable_log(b"ABCD"), _durable_log(b"WXYZ")
        FaultPlan(log, other).tear(1)
        assert log.read_all() == b"ABC" + bytes([ord("D") ^ 0xFF])
        assert other.read_all() == b"WXY" + bytes([ord("Z") ^ 0xFF])


    def test_tear_hits_the_open_file(self):
        log = _durable_log(b"ABCDEFGH")
        log.open("part.1")
        log.append(b"WXYZ")
        FaultPlan(log).tear(2)
        assert log.read_all() == b"WX" + bytes([ord("Y") ^ 0xFF,
                                                ord("Z") ^ 0xFF])
        assert log.read_all("appendonly.aof") == b"ABCDEFGH"


class TestCrashpoints:
    """``tests.support.crashpoints``: the operation cut before each of
    its steps, each on a fresh stack, then run to the end; each state
    power-lost and restarted."""

    def test_one_state_per_step_then_the_run_that_returned(self):
        def operation(log):
            log.append(b"A")
            log.flush_and_fsync()
            log.append(b"B")

        points = list(crashpoints(AppendLog, operation, lambda log: [log],
                                  lambda log: log.reopen(log.clock) or log))
        ops = ["append", "flush", "fsync", "append"]
        assert [(point.steps, point.lost) for point in points] == [
            (ops[:at], f"power lost before appendonly.aof.{op}")
            for at, op in enumerate(ops)] + [(ops, None)]
        # The run that returned loses its unsynced ``B`` too.
        assert [point.recovered.read_all() for point in points] == \
            [b""] * 3 + [b"A"] * 2
        assert len({id(point.stack) for point in points}) == 5

    def test_an_operation_that_runs_differently_each_time_fails(self):
        calls = []

        def one_more_step_each_call(log):
            calls.append(log)
            for _ in calls:
                log.append(b"x")

        with pytest.raises(AssertionError, match="the run took"):
            list(crashpoints(AppendLog, one_more_step_each_call,
                             lambda log: [log],
                             lambda log: log.reopen(log.clock) or log))
        assert len(calls) == 3          # recorded, cut before step 0, run


class TestInputs:
    @pytest.mark.parametrize("arm", [
        lambda plan: plan.fail("write"),
        lambda plan: plan.fail("fsnyc"),
        lambda plan: plan.cut(-1)])
    def test_unknown_op_or_negative_cut_is_refused(self, arm):
        with pytest.raises(ValueError):
            arm(FaultPlan(AppendLog()))

    def test_a_device_takes_one_plan(self):
        log, other = AppendLog(), AppendLog(name="other.log")
        FaultPlan(log)
        with pytest.raises(ValueError):
            FaultPlan(other, log)
        assert other.faults is None              # refused whole
