"""Tests for the append-only log's durability frontiers."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DeviceIOError
from repro.device.append_log import (
    AppendLog, BarrierScope, FsyncPolicy, LogWriter)
from repro.device.faults import FaultPlan, PowerLoss
from repro.device.latency import INTEL_750_SSD, ZERO


class TestFrontiers:
    def test_append_is_buffered(self):
        log = AppendLog()
        log.append(b"record1")
        assert log.total_length == 7
        assert log.cached_length == 0
        assert log.durable_length == 0

    def test_flush_advances_cache(self):
        log = AppendLog()
        log.append(b"record1")
        moved = log.flush()
        assert moved == 7
        assert log.cached_length == 7
        assert log.durable_length == 0

    def test_fsync_advances_durable(self):
        log = AppendLog()
        log.append(b"r")
        log.flush()
        log.fsync()
        assert log.durable_length == 1

    def test_invariant_ordering(self):
        log = AppendLog()
        log.append(b"aaa")
        log.flush()
        log.append(b"bbb")
        assert log.durable_length <= log.cached_length <= log.total_length

    def test_flush_empty_returns_zero(self):
        log = AppendLog()
        assert log.flush() == 0

    def test_pending_counters(self):
        log = AppendLog()
        log.append(b"abcd")
        assert log.unflushed_bytes == 4
        log.flush()
        assert log.unflushed_bytes == 0
        assert log.unsynced_bytes == 4
        log.fsync()
        assert log.unsynced_bytes == 0


class TestCrash:
    def test_power_loss_keeps_only_durable(self):
        log = AppendLog()
        log.append(b"AAAA")
        log.flush_and_fsync()
        log.append(b"BBBB")
        log.flush()
        log.append(b"CCCC")
        FaultPlan(log).power_loss()
        assert log.read_all() == b"AAAA"

    def test_views(self):
        log = AppendLog()
        log.append(b"AAAA")
        log.flush_and_fsync()
        log.append(b"BBBB")
        log.flush()
        log.append(b"CCCC")
        assert log.read_all() == b"AAAABBBBCCCC"
        assert log.read_durable() == b"AAAA"

    def test_torn_tail(self):
        log = AppendLog()
        log.append(b"ABCDEFGH")
        FaultPlan(log).tear(2)
        assert log.read_all()[:6] == b"ABCDEF"
        assert log.read_all()[6:] != b"GH"

    def test_torn_tail_bounds(self):
        log = AppendLog()
        log.append(b"AB")
        plan = FaultPlan(log)
        with pytest.raises(DeviceIOError):
            plan.tear(5)
        with pytest.raises(DeviceIOError):
            plan.tear(0)

    def test_truncate_cuts_the_tail_durably(self):
        log = AppendLog()
        log.append(b"AAAABBBB")
        log.flush_and_fsync()
        log.append(b"CC")
        log.flush()
        log.truncate(6)
        assert (log.read_all(), log.cached_length, log.durable_length) \
            == (b"AAAABB", 6, 6)
        log.append(b"DD")
        log.flush()
        FaultPlan(log).power_loss()
        assert log.read_all() == b"AAAABB"

    @pytest.mark.parametrize("length", [-1, 5])
    def test_truncate_bounds(self, length):
        log = AppendLog()
        log.append(b"AAAA")
        with pytest.raises(DeviceIOError, match="cannot truncate"):
            log.truncate(length)
        assert log.read_all() == b"AAAA"


class TestReadAt:
    def test_charges_one_syscall_plus_the_bytes_returned(self):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        log.append(b"0123456789")
        log.flush_and_fsync()
        before = clock.now()
        assert log.read_at(3, 4) == b"3456"
        assert clock.now() - before == pytest.approx(
            INTEL_750_SSD.read_cost(4))
        assert log.reads == 1
        assert log.read_at(0, 10) == b"0123456789"
        assert log.read_at(10, 0) == b""
        assert log.reads == 3

    @pytest.mark.parametrize("offset,length", [
        (-1, 2), (0, 11), (9, 2), (11, 0), (3, -1)])
    def test_bounds(self, offset, length):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        log.append(b"0123456789")
        with pytest.raises(DeviceIOError):
            log.read_at(offset, length)
        assert clock.now() == 0.0 and log.reads == 0   # refused, not charged

    def test_after_crash_only_surviving_bytes_are_readable(self):
        log = AppendLog()
        log.append(b"AAAA")
        log.flush_and_fsync()
        log.append(b"BBBB")
        log.flush()
        assert log.read_at(4, 4) == b"BBBB"
        FaultPlan(log).power_loss()
        assert log.read_at(0, 4) == b"AAAA"
        with pytest.raises(DeviceIOError):
            log.read_at(4, 4)


class TestTimingAndReplace:
    def test_fsync_charges_device_cost(self):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        log.append(b"x")
        log.flush()
        before = clock.now()
        log.fsync()
        assert clock.now() - before == pytest.approx(INTEL_750_SSD.fsync)

    def test_append_free_flush_charged(self):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        log.append(b"x" * 100)
        assert clock.now() == 0.0
        log.flush()
        assert clock.now() == pytest.approx(
            INTEL_750_SSD.write_cost(100))

    def test_fault_injection_on_flush(self):
        log = AppendLog()
        plan = FaultPlan(log)
        log.append(b"x")
        plan.fail("flush")
        with pytest.raises(DeviceIOError):
            log.flush()
        # Data stays in the application buffer, retry succeeds.
        assert log.flush() == 1

    def test_counters(self):
        log = AppendLog()
        log.append(b"a")
        log.append(b"b")
        log.flush_and_fsync()
        assert log.appends == 2
        assert log.syscalls == 1
        assert log.fsyncs == 1


class TestBarrierScope:
    def test_a_commit_outside_a_scope_is_durable_as_it_returns(self):
        log = AppendLog()
        log.append(b"r")
        log.commit()
        assert (log.durable_length, log.fsyncs) == (1, 1)

    def test_nested_scopes_pay_one_fsync_at_the_outermost_exit(self):
        log = AppendLog()
        with log.group():
            log.append(b"a")
            log.commit()
            with log.group():
                log.append(b"b")
                log.commit()
            assert log.fsyncs == 0 and log.cached_length == 2
        assert (log.durable_length, log.fsyncs) == (2, 1)
        with log.group():
            pass                    # nothing committed: no barrier
        assert log.fsyncs == 1

    def test_the_exit_runs_when_the_body_raises(self):
        log = AppendLog()
        with pytest.raises(KeyError):
            with log.group():
                log.append(b"a")
                log.commit()
                raise KeyError("command failed")
        assert (log.durable_length, log.fsyncs) == (1, 1)

    def test_an_fsync_inside_the_scope_satisfies_the_request(self):
        log = AppendLog()
        with log.group():
            log.append(b"a")
            log.commit()
            log.fsync()
        assert log.fsyncs == 1

    def test_a_failed_exit_fsync_leaves_the_request_pending(self):
        log = AppendLog()
        plan = FaultPlan(log)
        plan.fail("fsync")
        with pytest.raises(DeviceIOError):
            with log.group():
                log.append(b"a")
                log.commit()
        assert (log.durable_length, log.fsyncs) == (0, 0)
        with log.group():
            pass
        assert (log.durable_length, log.fsyncs) == (1, 1)
        assert plan.steps == ["append", "flush", "flush", "flush", "fsync"]


class TestFiles:
    """Every persisted byte lives on an append log's named files: a new
    file starts empty, each file keeps its own frontiers, one fsync is a
    barrier over them all, and a rename or unlink is the only way a file
    changes other than by its appends."""

    @staticmethod
    def _frontiers(log):
        return log.total_length, log.cached_length, log.durable_length

    def test_a_new_device_holds_one_open_file_named_after_it(self):
        log = AppendLog(name="wal.log")
        assert log.files() == ["wal.log"] and log.file == "wal.log"
        assert self._frontiers(log) == (0, 0, 0)

    def test_a_new_file_opens_empty(self):
        log = AppendLog()
        log.append(b"AAAA")
        log.open("part.1")
        assert log.read_all() == b"" and self._frontiers(log) == (0, 0, 0)
        assert log.files() == ["appendonly.aof", "part.1"]
        assert log.read_all("appendonly.aof") == b"AAAA"

    def test_reopening_a_file_restores_its_frontiers(self):
        log = AppendLog()
        log.append(b"AAAA")
        log.flush_and_fsync()
        log.append(b"BB")
        log.flush()
        log.append(b"C")
        log.open("part.1")
        log.append(b"xyz")
        log.open("appendonly.aof")
        assert self._frontiers(log) == (7, 6, 4)
        assert log.read_all() == b"AAAABBC"

    def test_flush_writes_every_file_one_syscall_each(self):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        log.append(b"AAAA")
        log.open("part.1")
        log.append(b"BB")
        assert log.flush() == 6
        assert log.syscalls == 2
        assert clock.now() == pytest.approx(
            INTEL_750_SSD.write_cost(4) + INTEL_750_SSD.write_cost(2))
        assert log.exposed_bytes(["appendonly.aof", "part.1"]) == 6

    def test_one_fsync_is_a_barrier_over_every_file(self):
        log = AppendLog()
        log.append(b"AAAA")
        log.open("part.1")
        log.append(b"BB")
        log.flush()
        log.fsync()
        assert log.fsyncs == 1
        assert log.read_files(["appendonly.aof", "part.1"],
                              durable=True) == [b"AAAA", b"BB"]

    def test_reading_an_absent_file_is_refused(self):
        log = AppendLog()
        with pytest.raises(DeviceIOError, match="no file 'part.9'"):
            log.read_all("part.9")
        with pytest.raises(DeviceIOError):
            log.read_files(["appendonly.aof", "part.9"])

    def test_remove_refuses_the_open_or_an_absent_file(self):
        log = AppendLog()
        log.append(b"AAAA")
        log.open("part.1")
        for names in (["part.1"], ["part.9"]):
            with pytest.raises(DeviceIOError, match="open or absent"):
                log.remove(names)
        assert log.files() == ["appendonly.aof", "part.1"]

    def test_rename_replaces_the_file_of_that_name(self):
        log = AppendLog()
        log.append(b"old")
        log.flush_and_fsync()
        log.open("rewrite.tmp")
        log.append(b"new")
        log.flush_and_fsync()
        log.rename("appendonly.aof")
        assert log.files() == ["appendonly.aof"]
        assert log.read_all() == b"new"
        FaultPlan(log).power_loss()
        assert log.read_all() == b"new"   # a rename is durable as it returns

    def test_a_replaced_file_leaves_no_bytes_to_write(self):
        log = AppendLog()
        log.append(b"unwritten")
        log.open("rewrite.tmp")
        log.append(b"new")
        log.rename("appendonly.aof")
        assert log.flush() == 3 and log.syscalls == 1

    def test_exposed_bytes_are_what_a_power_loss_loses(self):
        log = AppendLog()
        log.append(b"AAAA")
        log.flush_and_fsync()
        log.append(b"BB")
        log.open("part.1")
        log.append(b"CCC")
        log.flush()
        names = ["appendonly.aof", "part.1"]
        before = sum(len(data) for data in log.read_files(names))
        exposed = log.exposed_bytes(names)
        FaultPlan(log).power_loss()
        after = sum(len(data) for data in log.read_files(names))
        assert (exposed, before - after) == (5, 5)
        assert log.exposed_bytes(names) == 0

    def test_holding_names_the_files_that_mention_a_needle(self):
        log = AppendLog()
        log.append(b"SET alice 1")
        for name, data in (("part.1", b"SET bob 2"),
                           ("part.2", b"DEL carol")):
            log.open(name)
            log.append(data)
        names = ["part.2", "appendonly.aof", "part.1"]
        assert log.holding(names, [b"alice", b"carol"]) == [
            "part.2", "appendonly.aof"]
        assert log.holding(names, [b"dave"]) == []

    def test_an_empty_append_moves_nothing(self):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        log.append(b"")
        assert log.flush() == 0
        assert (log.appends, log.syscalls, clock.now()) == (1, 0, 0.0)

    def test_the_zero_model_charges_no_time(self):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=ZERO)
        log.append(b"x" * 4096)
        log.commit()
        log.open("part.1")
        log.append(b"y")
        log.flush_and_fsync()
        log.open("appendonly.aof")
        assert log.read_at(0, 4096) == b"x" * 4096
        assert clock.now() == 0.0
        assert (log.syscalls, log.fsyncs, log.reads) == (2, 2, 1)


class TestDeviceTimer:
    """An everysec device runs one recurring timer on its clock: each
    firing fsyncs the device once if some file holds unsynced bytes.
    Each test holds its writers: the device holds them weakly."""

    def test_two_everysec_writers_make_one_timer(self):
        clock = SimClock()
        log = AppendLog(clock=clock)
        writers = [LogWriter(log, clock, FsyncPolicy.EVERYSEC)
                   for _ in range(2)]
        assert clock.pending_timers() == 1
        log.append(b"x")
        log.flush()
        clock.advance(1.0)
        assert log.fsyncs == 1 and log.exposed_bytes([log.name]) == 0

    @pytest.mark.parametrize("policy", [FsyncPolicy.ALWAYS, FsyncPolicy.NO])
    def test_always_and_no_devices_register_none(self, policy):
        clock = SimClock()
        LogWriter(AppendLog(clock=clock), clock, policy)
        assert clock.pending_timers() == 0

    def test_a_firing_with_nothing_unsynced_costs_nothing(self):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        writer = LogWriter(log, clock, FsyncPolicy.EVERYSEC)
        log.append(b"x")        # in the application buffer: not written
        clock.advance(3.0)
        assert clock.now() == 3.0
        assert (log.fsyncs, log.syscalls) == (0, 0)

    def test_every_file_of_the_device_is_synced(self):
        clock = SimClock()
        log = AppendLog(clock=clock)
        writer = LogWriter(log, clock, FsyncPolicy.EVERYSEC)
        log.append(b"a")
        log.open("other")
        log.append(b"b")
        log.flush()
        clock.advance(1.0)
        assert log.fsyncs == 1
        assert log.exposed_bytes([log.name, "other"]) == 0

    @pytest.mark.parametrize("op", ["flush", "flush_and_fsync"])
    def test_a_firing_inside_the_device_s_own_charge_is_one_fsync(self, op):
        # The grid instant t=1 falls inside the write syscall's charge
        # (and, for flush_and_fsync, the fsync follows it): the firing
        # waits for the operation to end, so the device makes one fsync
        # and no charge is nested inside another.  After a flush the
        # firing's fsync is queued: the caller pays only the write.
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        writer = LogWriter(log, clock, FsyncPolicy.EVERYSEC)
        log.append(b"x" * 1000)
        clock.advance(1.0 - 1e-6)
        began = clock.now()
        getattr(log, op)()
        assert log.fsyncs == 1
        waited = INTEL_750_SSD.fsync if op == "flush_and_fsync" else 0.0
        assert clock.now() - began == pytest.approx(
            INTEL_750_SSD.write_cost(1000) + waited)
        # The queued fsync covers the bytes once it lands.
        assert log.exposed_bytes([log.name]) == (0 if waited else 1000)
        clock.advance(INTEL_750_SSD.fsync)
        assert log.exposed_bytes([log.name]) == 0

    def test_a_firing_inside_an_fsync_charge_adds_none(self):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        writer = LogWriter(log, clock, FsyncPolicy.EVERYSEC)
        log.append(b"x")
        log.flush()
        clock.advance(1.0 - clock.now() - 100e-6)
        log.fsync()             # t=1 falls 100 us into its 800 us charge
        assert log.fsyncs == 1
        clock.advance(0.5)
        assert log.fsyncs == 1

    def test_a_firing_inside_a_group_runs_at_its_exit(self):
        clock = SimClock()
        log = AppendLog(clock=clock)
        writer = LogWriter(log, clock, FsyncPolicy.EVERYSEC)
        with log.group():
            with log.group():
                log.append(b"x")
                writer.post_command()
                clock.advance(1.0)
            assert log.fsyncs == 0      # an inner exit is not the end
        assert log.fsyncs == 1 and log.unsynced_bytes == 0


def _scoped_write(clock, audit, log):
    """Inside ``BarrierScope(audit, log)``: data to ``log``, its
    timer's instant, then the audit record of the write under
    ``always``."""
    with BarrierScope(audit, log):
        log.append(b"data")
        log.flush()
        clock.advance(1.0)
        assert log.fsyncs == 0          # the firing waits for the exit
        audit.append(b"record")
        LogWriter(audit, clock, FsyncPolicy.ALWAYS).post_command()


class TestQueuedBarrier:
    """Whoever waits for a barrier pays for it: ``fsync(wait=False)``
    queues the barrier on the device and charges its caller nothing,
    and any later barrier first waits out the one in flight."""

    FSYNC = INTEL_750_SSD.fsync

    def _written(self):
        clock = SimClock()
        log = AppendLog(clock=clock, latency=INTEL_750_SSD)
        log.append(b"x")
        log.flush()
        return clock, log

    def test_a_queued_barrier_charges_nothing(self):
        clock, log = self._written()
        began = clock.now()
        log.fsync(wait=False)
        assert clock.now() == began
        assert (log.fsyncs, log.durable_length) == (1, 1)
        assert log.idle_at == pytest.approx(began + self.FSYNC)

    def test_a_waited_barrier_waits_out_the_one_in_flight(self):
        clock, log = self._written()
        log.fsync(wait=False)
        clock.advance(300e-6)
        began = clock.now()
        log.fsync()
        assert clock.now() - began == pytest.approx(500e-6 + self.FSYNC)
        assert log.fsyncs == 2

    def test_a_second_queued_barrier_waits_out_the_first(self):
        clock, log = self._written()
        log.fsync(wait=False)
        clock.advance(300e-6)
        began = clock.now()
        log.fsync(wait=False)
        assert clock.now() - began == pytest.approx(500e-6)
        assert log.idle_at == pytest.approx(clock.now() + self.FSYNC)

    def test_writes_and_reads_never_wait(self):
        clock, log = self._written()
        log.fsync(wait=False)
        log.append(b"y" * 100)
        began = clock.now()
        log.flush()
        log.read_at(0, 1)
        assert clock.now() - began == pytest.approx(
            INTEL_750_SSD.write_cost(100) + INTEL_750_SSD.read_cost(1))

    def test_a_barrier_after_the_one_in_flight_ends_does_not_wait(self):
        clock, log = self._written()
        log.fsync(wait=False)
        clock.advance(self.FSYNC + 1e-3)
        began = clock.now()
        log.fsync()
        assert clock.now() - began == pytest.approx(self.FSYNC)

    @pytest.mark.parametrize("cut, landed, durable", [
        (0, False, b""), (1, False, b""), (1, True, b"x")])
    def test_it_is_one_fsync_step(self, cut, landed, durable):
        # A cut before the queued barrier loses its bytes, and so does a
        # cut after it while the barrier is in flight; a cut once it has
        # landed (the clock at idle_at) keeps them.
        clock, log = self._written()
        plan = FaultPlan(log)
        plan.cut(cut)
        with pytest.raises(PowerLoss):
            log.fsync(wait=False)
            if landed:
                clock.advance(self.FSYNC)
            log.append(b"z")
        assert plan.steps == ["fsync"][:cut]
        assert log.read_all() == durable

    @pytest.mark.parametrize("part", [False, True], ids=["open", "part"])
    @pytest.mark.parametrize("landed, loss, kept", [
        (False, True, b""), (True, True, b"x"), (False, False, b"x")],
        ids=["lost-in-flight", "lost-landed", "reopened-in-flight"])
    def test_a_power_loss_keeps_what_landed(self, landed, loss, kept, part):
        # Until idle_at a power loss keeps what the queued barrier
        # replaced, and the durable views say so beforehand; a restart
        # with no power loss keeps everything written.
        clock, log = self._written()
        log.fsync(wait=False)
        if part:
            log.open("part.1")
        if landed:
            clock.advance(self.FSYNC)
        durable = log.read_files([log.name], durable=True)[0]
        if not part:
            assert log.read_durable() == durable
            assert b"".join(log.lines(durable=True)) == durable
        assert log.exposed_bytes([log.name]) == 1 - len(durable)
        assert log.durable_length == (0 if part else 1)  # asked of it
        if loss:
            FaultPlan(log).power_loss()
        else:
            durable = log.read_all(log.name)    # what a restart keeps
        log.reopen(clock)
        assert log.read_all(log.name) == durable == kept
        assert log.read_files([log.name], durable=True) == [kept]


class TestFiringInsideABarrierScope:
    """A timer firing that falls inside a barrier scope runs at the
    outermost exit, after the scope's own barriers: the data of a
    request never becomes durable ahead of the audit record that the
    request's barrier makes durable."""

    def _devices(self):
        clock = SimClock()
        audit = AppendLog(clock=clock, name="audit.log")
        log = AppendLog(clock=clock)
        return clock, audit, log, LogWriter(log, clock, FsyncPolicy.EVERYSEC)

    def test_it_runs_after_the_scope_s_barriers(self):
        clock, audit, log, writer = self._devices()
        plan = FaultPlan(audit, log)
        plan.cut(5)                     # before the second fsync
        with pytest.raises(PowerLoss):
            _scoped_write(clock, audit, log)
        assert plan.steps == ["append", "flush", "append", "flush",
                              "fsync"]
        assert (audit.read_durable(), log.read_durable()) == (b"record", b"")

    def test_a_due_firing_survives_a_failed_barrier(self):
        clock, audit, log, writer = self._devices()
        FaultPlan(audit, log).fail("fsync")     # the audit barrier fails
        with pytest.raises(DeviceIOError):
            _scoped_write(clock, audit, log)
        assert log.fsyncs == 0
        with BarrierScope(audit, log):  # the next exit runs it
            pass
        assert log.fsyncs == 1 and log.unsynced_bytes == 0
