"""Tests for a windowed audit log's block seals (BATCH, fast-GDPR's
amortization): by size, at the device timer's firings, the quiescent
group-commit timer, the O(1) at-risk counter, and the bounded in-memory
window."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import AuditError, DeviceIOError
from repro.device.append_log import AppendLog
from repro.device.faults import FaultPlan
from repro.device.latency import INTEL_750_SSD
from repro.gdpr.audit import AuditDurability, AuditLog


def make_block_log(block_size=4, batch_interval=1.0, latency=None):
    clock = SimClock()
    backing = AppendLog(clock=clock,
                        latency=latency if latency else
                        INTEL_750_SSD.scaled(0))
    log = AuditLog(log=backing, clock=clock,
                   durability=AuditDurability.BATCH,
                   block_size=block_size, batch_interval=batch_interval)
    return log, clock


class TestBlockSealing:
    def test_size_threshold_seals(self):
        log, _ = make_block_log(block_size=3)
        for i in range(7):
            log.append("p", "get", key=f"k{i}")
        assert log.blocks_sealed == 2
        assert log.pending_records == 1

    def test_one_fsync_per_block(self):
        log, _ = make_block_log(block_size=4)
        for i in range(8):
            log.append("p", "get", key=f"k{i}")
        assert log.log.fsyncs == 2

    def test_interval_seals_partial_block(self):
        log, clock = make_block_log(block_size=100, batch_interval=1.0)
        log.append("p", "get")
        assert log.blocks_sealed == 0
        clock.advance(1.5)      # the device's timer fires inside it
        assert log.blocks_sealed == 1
        assert log.pending_records == 0

    def test_quiescent_timer_needs_no_traffic(self):
        # The starvation bugfix, block-mode flavour: sealing fires from
        # the scheduler, not from the next append.
        log, clock = make_block_log(block_size=100, batch_interval=1.0)
        log.append("p", "get")
        clock.run_until_idle(deadline=5.0)
        assert log.blocks_sealed == 1

    def test_verify_durable_counts_members(self):
        log, _ = make_block_log(block_size=4)
        for i in range(8):
            log.append("p", "get", key=f"k{i}")
        assert log.verify_durable() == 8

    def test_sync_seals_pending(self):
        log, _ = make_block_log(block_size=100)
        for i in range(5):
            log.append("p", "get")
        assert log.at_risk_records() == 5
        log.sync()
        assert log.at_risk_records() == 0
        assert log.verify_durable() == 5

    def test_parse_expands_blocks(self):
        log, _ = make_block_log(block_size=2)
        log.append("p", "get", key="a")
        log.append("p", "put", key="b")
        records = AuditLog.parse(log.log.read_durable())
        assert [r.key for r in records] == ["a", "b"]

    def test_block_charges_one_fsync_cost(self):
        log, clock = make_block_log(block_size=50,
                                    latency=INTEL_750_SSD)
        before = clock.now()
        for i in range(50):
            log.append("p", "get")
        elapsed = clock.now() - before
        assert elapsed < 2 * INTEL_750_SSD.fsync


class TestBlockRoundtrip:
    @pytest.mark.parametrize("line", [
        b'{"sealed_at":1.0,"hash":"00"}\n',
        b'{"members":{"seq":0},"sealed_at":1.0,"hash":"00"}\n',
        b'["members"]\n',
        b'{"members":[{"seq":0,"ts":\xff}]}\n'])
    def test_corrupt_block_line_raises(self, line):
        # A line that decodes but holds no member list is corrupt, not
        # a block of no records.
        with pytest.raises(AuditError, match="corrupt audit block line"):
            AuditLog.parse(line)


class TestGroupCommitTimer:
    def test_batch_quiescent_log_syncs_via_timer(self):
        # The starvation bugfix proper: no append ever runs after the
        # first one, yet the at-risk records drain on the interval.
        clock = SimClock()
        log = AuditLog(log=AppendLog(clock=clock,
                                     latency=INTEL_750_SSD.scaled(0)),
                       clock=clock, durability=AuditDurability.BATCH,
                       batch_interval=1.0)
        log.append("p", "get")
        assert log.at_risk_records() == 1
        clock.run_until_idle(deadline=3.0)
        assert log.at_risk_records() == 0

    def test_timer_is_daemon(self):
        clock = SimClock()
        AuditLog(log=AppendLog(clock=clock), clock=clock,
                 durability=AuditDurability.BATCH, batch_interval=1.0)
        # Daemon events must not keep run_until_idle alive on their own.
        assert clock.pending_live_events() == 0

    def test_sync_mode_registers_no_timer(self):
        clock = SimClock()
        AuditLog(log=AppendLog(clock=clock), clock=clock,
                 durability=AuditDurability.SYNC)
        assert clock.pending_timers() == 0

    def test_seals_ride_the_device_timer(self):
        # Interval sealing is the device's one timer: with it cancelled
        # a partial block waits for its size or an explicit sync.
        log, clock = make_block_log(block_size=100, batch_interval=1.0)
        log.append("p", "get")
        assert clock.pending_timers() == 1
        log.log.timer.cancel()
        clock.advance(5.0)
        assert log.blocks_sealed == 0

    def test_an_interval_seal_is_queued_on_the_device(self):
        # No request waits for a seal at a firing: it charges the
        # block's write syscall, and its fsync leaves the device busy.
        log, clock = make_block_log(block_size=100, batch_interval=1.0,
                                    latency=INTEL_750_SSD)
        log.append("p", "get")
        clock.advance(1.0)
        line = log.log.total_length
        assert log.blocks_sealed == 1 and log.log.fsyncs == 1
        assert clock.now() == pytest.approx(
            1.0 + INTEL_750_SSD.write_cost(line))
        assert log.log.idle_at == pytest.approx(
            clock.now() + INTEL_750_SSD.fsync)
        # Its record is at risk until the barrier lands.
        assert log.at_risk_records() == 1
        clock.advance(INTEL_750_SSD.fsync)
        assert log.at_risk_records() == 0

    def test_a_failed_interval_seal_leaves_the_timer_running(self):
        # One failed fsync must not end the device's timer: the next
        # firing seals the records appended since, and the failed block
        # with them.
        log, clock = make_block_log(block_size=100, batch_interval=1.0)
        log.append("p", "get")
        FaultPlan(log.log).fail("fsync")
        with pytest.raises(DeviceIOError):
            clock.advance(1.5)
        log.append("p", "put")
        clock.advance(30.0)
        assert clock.pending_timers() == 1
        assert log.at_risk_records() == 0
        assert log.verify_durable() == 2


class TestAtRiskIncremental:
    def test_no_durable_rereads(self):
        # at_risk_records must not touch the device: O(1), not O(bytes).
        log, _ = make_block_log(block_size=2)
        for i in range(10):
            log.append("p", "get")
        reads = []
        original = log.log.read_durable
        log.log.read_durable = lambda: reads.append(1) or original()
        assert log.at_risk_records() == 0
        assert reads == []

    def test_batch_counter_tracks_fsync(self):
        clock = SimClock()
        log = AuditLog(log=AppendLog(clock=clock,
                                     latency=INTEL_750_SSD.scaled(0)),
                       clock=clock, durability=AuditDurability.BATCH,
                       batch_interval=1.0)
        for _ in range(3):
            log.append("p", "get")
        assert log.at_risk_records() == 3
        clock.advance(1.5)
        assert log.at_risk_records() == 0


class TestBoundedMemory:
    def test_records_between_bisected(self):
        log, clock = make_block_log(block_size=100)
        for i in range(10):
            log.append("p", f"op{i}")
            clock.advance(1.0)
        window = log.records_between(2.5, 6.5)
        assert [r.operation for r in window] == ["op3", "op4", "op5",
                                                 "op6"]
