"""Tests for the tamper-evident audit log: appending, the SYNC policy's
one block per request, and verification of the one block format."""

import json
import tracemalloc

import pytest

from repro.common.clock import SimClock
from repro.common.hashing import GENESIS_HASH, chain_hash
from repro.common.errors import AuditError
from repro.device.append_log import AppendLog, BarrierScope
from repro.device.faults import FaultPlan, PowerLoss
from repro.device.latency import INTEL_750_SSD
from repro.gdpr.audit import AuditDurability, AuditLog


def make_log(durability=AuditDurability.SYNC, batch_interval=1.0,
             latency=None, block_size=64):
    clock = SimClock()
    backing = AppendLog(clock=clock,
                        latency=latency if latency else
                        INTEL_750_SSD.scaled(0))
    return AuditLog(log=backing, clock=clock, durability=durability,
                    batch_interval=batch_interval,
                    block_size=block_size), clock


def forge(log, data):
    """Replace the audit device's file with ``data``, made durable, as a
    file replacement is done on a device."""
    device = log.log
    device.open(device.name + ".forged")
    device.append(data)
    device.flush_and_fsync()
    device.rename(device.name)


def lines_of(log):
    return log.log.read_durable().splitlines(keepends=True)


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

    def test_parse_round_trips_the_records(self):
        log, clock = make_log()
        log.append("p", "get", key="k", subject="s")
        clock.advance(0.1)
        log.append("p", "put", purpose="billing", detail='a "quoted" one')
        assert AuditLog.parse(log.log.read_durable()) == log.records()

    def test_corrupt_line_raises(self):
        with pytest.raises(AuditError):
            AuditLog.parse(b"not json at all\n")

    def test_only_block_is_a_chain_mode(self):
        assert AuditLog(chain_mode="block").verify() == 0
        with pytest.raises(ValueError, match="one format"):
            AuditLog(chain_mode="record")


class TestOneBlockPerRequest:
    def test_a_record_outside_any_scope_is_sealed_at_once(self):
        log, _ = make_log()
        log.append("p", "get")
        log.append("p", "put")
        assert (log.blocks_sealed, log.log.fsyncs) == (2, 2)
        assert log.at_risk_records() == 0

    def test_a_scope_s_records_are_one_block_sealed_at_its_exit(self):
        log, _ = make_log()
        with BarrierScope(log.log):
            with BarrierScope(log.log):     # nested: the outermost exit
                log.append("p", "get")
            log.append("p", "put")
            assert (log.blocks_sealed, log.at_risk_records()) == (0, 2)
        assert (log.blocks_sealed, log.log.fsyncs, log.log.syscalls) \
            == (1, 1, 1)
        assert log.at_risk_records() == 0
        assert [len(json.loads(line)["members"])
                for line in lines_of(log)] == [2]

    def test_commit_seals_now_inside_a_scope(self):
        log, _ = make_log()
        with BarrierScope(log.log):
            log.append("p", "erase-subject")
            log.commit()
            assert (log.blocks_sealed, log.at_risk_records()) == (1, 0)
            log.append("p", "tier-cold-erase")
        assert log.blocks_sealed == 2

    @pytest.mark.parametrize("durability", [AuditDurability.BATCH,
                                            AuditDurability.ASYNC])
    def test_commit_keeps_a_windowed_log_s_window(self, durability):
        log, _ = make_log(durability)
        log.append("p", "erase-subject")
        log.commit()
        assert (log.blocks_sealed, log.at_risk_records()) == (0, 1)

    def test_a_one_member_block_is_its_body_and_one_hash(self):
        log, _ = make_log()
        record = log.append("p", "get", key="k", subject="s")
        [line] = lines_of(log)
        envelope = json.loads(line)
        assert sorted(envelope) == ["hash", "members", "sealed_at"]
        assert len(line) == len(record.payload()) + len(
            b'{"members":[],"sealed_at":0.0,"hash":""}\n') + 64


class TestVerification:
    def _log(self, records=12, block_size=4):
        log, clock = make_log(AuditDurability.BATCH,
                              block_size=block_size)
        for i in range(records):
            clock.advance(0.01)
            log.append("p", "get", key=f"k{i}", subject=f"s{i % 2}")
        assert log.pending_records == 0
        return log

    def test_the_chain_verifies(self):
        log = self._log()
        assert log.verify() == log.verify_durable() == 12

    def test_an_empty_log_verifies(self):
        log, _ = make_log()
        assert log.verify() == log.verify_durable() == 0

    def test_an_edited_member_is_detected(self):
        log = self._log()
        lines = lines_of(log)
        lines[1] = lines[1].replace(b'"key":"k5"', b'"key":"FORGED"')
        forge(log, b"".join(lines))
        with pytest.raises(AuditError, match="hash mismatch"):
            log.verify()

    def test_an_edited_seal_instant_is_detected(self):
        log = self._log()
        lines = lines_of(log)
        envelope = json.loads(lines[0])
        lines[0] = lines[0].replace(
            b'"sealed_at":%r' % envelope["sealed_at"], b'"sealed_at":99.0')
        forge(log, b"".join(lines))
        with pytest.raises(AuditError, match="hash mismatch"):
            log.verify_durable()

    def test_reordered_blocks_are_detected(self):
        log = self._log()
        lines = lines_of(log)
        forge(log, lines[1] + lines[0] + lines[2])
        with pytest.raises(AuditError, match="hash mismatch"):
            log.verify()

    def test_a_dropped_middle_block_is_detected(self):
        log = self._log()
        lines = lines_of(log)
        forge(log, lines[0] + lines[2])
        with pytest.raises(AuditError, match="hash mismatch"):
            log.verify()

    def test_a_torn_tail_line_is_detected(self):
        log = self._log()
        forge(log, log.log.read_durable()[:-10])
        with pytest.raises(AuditError):
            log.verify_durable()

    def test_a_sealed_block_lost_from_the_device_is_detected(self):
        # Dropping the final block leaves a valid shorter chain: the log
        # knows how many records it made durable and flags the loss.
        log = self._log()
        forge(log, b"".join(lines_of(log)[:-1]))
        with pytest.raises(AuditError, match="sealed"):
            log.verify_durable()
        with pytest.raises(AuditError, match="sealed"):
            log.verify()

    def test_a_rehashed_chain_missing_a_record_is_detected(self):
        # The chain is keyless: a forger who drops a member can re-hash
        # every block, and only the member sequence shows the gap.
        log = self._log()
        tip, forged = GENESIS_HASH, []
        for number, line in enumerate(lines_of(log)):
            envelope = json.loads(line)
            members = envelope["members"][1:] if number == 1 \
                else envelope["members"]
            head = b'{"members":[%s],"sealed_at":%r' % (
                b",".join(json.dumps(m, sort_keys=True,
                                     separators=(",", ":")).encode()
                          for m in members), envelope["sealed_at"])
            tip = chain_hash(tip, head)
            forged.append(head + b',"hash":"%s"}\n' % tip.encode())
        forge(log, b"".join(forged))
        with pytest.raises(AuditError, match="sequence gap at seq 4"):
            log.verify()

    def test_a_crash_inside_a_seal_leaves_its_records_at_risk(self):
        # The block whose barrier was cut never became durable and was
        # never reported so: its records are at risk, and the durable
        # chain before it verifies.
        log = self._log(records=8)
        FaultPlan(log.log).cut("fsync")
        with pytest.raises(PowerLoss):
            for i in range(4):
                log.append("p", "put", key=f"x{i}")
        assert log.at_risk_records() == 4
        assert log.verify_durable() == 8


def test_verify_reads_the_device_one_line_at_a_time():
    """Neither verifier copies the device or a list of its lines: over
    20,000 one-record blocks (about 5 MB) each peaks under 1 MiB."""
    log, clock = make_log()
    for i in range(20_000):
        clock.advance(1e-4)
        log.append("svc", "get", key=f"user{i}", subject=f"s{i % 97}",
                   purpose="service")
    assert log.log.total_length > 4_000_000
    for verify in (log.verify, log.verify_durable):
        tracemalloc.start()
        try:
            assert verify() == 20_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (verify.__name__, peak)


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

    def test_batch_seals_at_every_firing(self):
        # A seal's write time must not make the next firing skip its
        # seal: the interval counts from the instant a block is sealed.
        log, clock = make_log(AuditDurability.BATCH, batch_interval=1.0,
                              latency=INTEL_750_SSD)
        for _ in range(40):
            clock.advance(0.13)
            log.append("p", "get")
        assert log.blocks_sealed == 5

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
