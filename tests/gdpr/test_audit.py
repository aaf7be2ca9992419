"""Tests for the tamper-evident audit log."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import AuditError
from repro.device.append_log import AppendLog
from repro.device.latency import INTEL_750_SSD
from repro.gdpr.audit import AuditDurability, AuditLog, AuditRecord


def make_log(durability=AuditDurability.SYNC, batch_interval=1.0,
             latency=None):
    clock = SimClock()
    backing = AppendLog(clock=clock,
                        latency=latency if latency else
                        INTEL_750_SSD.scaled(0))
    return AuditLog(log=backing, clock=clock, durability=durability,
                    batch_interval=batch_interval), clock


class TestAppend:
    def test_sequence_numbers(self):
        log, _ = make_log()
        a = log.append("p", "get", key="k1")
        b = log.append("p", "get", key="k2")
        assert (a.seq, b.seq) == (0, 1)
        assert log.record_count == 2

    def test_record_fields(self):
        log, clock = make_log()
        clock.advance(5.0)
        record = log.append("worker", "put", key="k", subject="alice",
                            purpose="billing", outcome="ok", detail="d")
        assert record.principal == "worker"
        assert record.subject == "alice"
        assert record.timestamp >= 5.0

    def test_line_roundtrip(self):
        log, _ = make_log()
        record = log.append("p", "get", key="k", subject="s")
        parsed = AuditRecord.from_line(record.to_line().strip())
        assert parsed == record

    def test_parse_durable_bytes(self):
        log, _ = make_log()
        log.append("p", "get")
        log.append("p", "put")
        records = AuditLog.parse(log.log.read_durable())
        assert len(records) == 2

    def test_corrupt_line_raises(self):
        with pytest.raises(AuditError):
            AuditRecord.from_line(b"not json at all")


class TestChainVerification:
    def test_valid_chain_verifies(self):
        log, _ = make_log()
        for i in range(10):
            log.append("p", "get", key=f"k{i}")
        assert AuditLog.verify_chain(log.records()) == 10

    def test_empty_chain(self):
        assert AuditLog.verify_chain([]) == 0

    def test_edited_record_detected(self):
        import dataclasses
        log, _ = make_log()
        for i in range(5):
            log.append("p", "get", key=f"k{i}")
        records = log.records()
        records[2] = dataclasses.replace(records[2], key="FORGED")
        with pytest.raises(AuditError):
            AuditLog.verify_chain(records)

    def test_removed_record_detected(self):
        log, _ = make_log()
        for i in range(5):
            log.append("p", "get", key=f"k{i}")
        records = log.records()
        del records[2]
        with pytest.raises(AuditError):
            AuditLog.verify_chain(records)

    def test_reordered_records_detected(self):
        log, _ = make_log()
        for i in range(5):
            log.append("p", "get", key=f"k{i}")
        records = log.records()
        records[1], records[2] = records[2], records[1]
        with pytest.raises(AuditError):
            AuditLog.verify_chain(records)

    def test_truncated_prefix_ok_suffix_missing(self):
        # Truncating the *end* is detectable only by count, but the prefix
        # itself still verifies -- hence the seq check for gaps.
        log, _ = make_log()
        for i in range(5):
            log.append("p", "get")
        assert AuditLog.verify_chain(log.records()[:3]) == 3

    def test_verify_durable(self):
        log, _ = make_log()
        log.append("p", "get")
        assert log.verify_durable() == 1


class TestDurability:
    def test_sync_durable_immediately(self):
        log, _ = make_log(AuditDurability.SYNC)
        log.append("p", "get")
        assert log.at_risk_records() == 0

    def test_async_leaves_records_at_risk(self):
        log, _ = make_log(AuditDurability.ASYNC)
        log.append("p", "get")
        assert log.at_risk_records() == 1

    def test_batch_commits_after_interval(self):
        log, clock = make_log(AuditDurability.BATCH, batch_interval=1.0)
        log.append("p", "get")
        assert log.at_risk_records() == 1
        clock.advance(0.9)
        assert log.at_risk_records() == 1
        clock.advance(0.6)      # the device's timer fires at 1.0
        assert log.at_risk_records() == 0

    def test_batch_window_bounds_exposure(self):
        log, clock = make_log(AuditDurability.BATCH, batch_interval=10.0)
        for i in range(5):
            clock.advance(1.0)
            log.append("p", "get", key=f"k{i}")
        assert 0 < log.at_risk_records() <= 5

    def test_sync_charges_fsync_cost(self):
        clock = SimClock()
        backing = AppendLog(clock=clock, latency=INTEL_750_SSD)
        log = AuditLog(log=backing, clock=clock,
                       durability=AuditDurability.SYNC)
        before = clock.now()
        log.append("p", "get")
        assert clock.now() - before >= INTEL_750_SSD.fsync

    def test_batch_amortizes_fsync(self):
        sync_log, sync_clock = make_log(AuditDurability.SYNC,
                                        latency=INTEL_750_SSD)
        batch_log, batch_clock = make_log(AuditDurability.BATCH,
                                          latency=INTEL_750_SSD)
        for i in range(50):
            sync_log.append("p", "get")
            batch_log.append("p", "get")
        assert batch_clock.now() < sync_clock.now() / 5


class TestQueries:
    def test_records_between(self):
        log, clock = make_log()
        log.append("p", "one")
        clock.advance(10)
        log.append("p", "two")
        clock.advance(10)
        log.append("p", "three")
        window = log.records_between(5.0, 15.0)
        assert [r.operation for r in window] == ["two"]
