"""Tests for the tamper-evident audit log: appending, the SYNC policy's
one block per request, verification of the one block format, and the
log as its device: reopened where its chain ends, read from its blocks."""

import json
import tracemalloc

import pytest

from repro.common.clock import SimClock
from repro.common.hashing import GENESIS_HASH, chain_hash
from repro.common.errors import AuditError, DeviceIOError
from repro.device.append_log import AppendLog, BarrierScope
from repro.device.faults import FaultPlan, PowerLoss
from repro.device.latency import INTEL_750_SSD
from repro.gdpr.audit import AuditDurability, AuditLog
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.store import GDPRStore
from tests.support import ENGINE_FACTORIES


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
        log.append("p", "get", key="k1")
        log.append("p", "get", key="k2")
        assert [record.seq for record in log.records()] == [0, 1]
        assert log.record_count == 2

    def test_record_fields(self):
        log, clock = make_log()
        clock.advance(5.0)
        log.append("worker", "put", key="k", subject="alice",
                   purpose="billing", outcome="ok", detail="d")
        record = log.records()[-1]
        assert record.principal == "worker"
        assert record.subject == "alice"
        assert record.timestamp >= 5.0

    def test_records_are_what_the_device_holds(self):
        # A record's timestamp is stored to the nanosecond, and that is
        # what a read returns, pending records included.
        log, clock = make_log(AuditDurability.BATCH)
        clock.advance(1 / 3)
        log.append("p", "get", key="k", subject="s")
        log.sync()
        clock.advance(0.1)
        log.append("p", "put", purpose="billing", detail='a "quoted" one')
        assert log.pending_records == 1
        records = log.records()
        assert AuditLog.parse(log.log.read_durable()) == records[:1]
        assert [r.timestamp for r in records] == [
            round(1 / 3, 9), round(1 / 3 + 0.1, 9)]
        assert (records[1].detail, records[1].purpose) == (
            'a "quoted" one', "billing")

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

    def test_commit_keeps_a_windowed_log_s_window(self):
        log, _ = make_log(AuditDurability.BATCH)
        log.append("p", "erase-subject")
        log.commit()
        assert (log.blocks_sealed, log.at_risk_records()) == (0, 1)

    def test_a_one_member_block_is_its_body_and_one_hash(self):
        log, _ = make_log()
        log.append("p", "get", key="k", subject="s")
        [line] = lines_of(log)
        envelope = json.loads(line)
        body = json.dumps(envelope["members"][0], sort_keys=True,
                          separators=(",", ":")).encode()
        assert line == b'{"members":[%s],"sealed_at":0.0,"hash":"%s"}\n' % (
            body, envelope["hash"].encode())
        assert len(envelope["hash"]) == 64


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
        FaultPlan(log.log).cut(2)           # the 4th record's seal's fsync
        with pytest.raises(PowerLoss):
            for i in range(4):
                log.append("p", "put", key=f"x{i}")
        assert log.at_risk_records() == 4
        assert log.verify_durable() == 8


def _appended(log, clock):
    for i in range(20_000):
        clock.advance(1e-4)
        log.append("svc", "get", key=f"user{i}", subject=f"s{i % 97}",
                   purpose="service")


def test_verify_reads_the_device_one_line_at_a_time():
    """Neither verifier nor a narrow window of records copies the device
    or a list of its lines: over 20,000 one-record blocks (about 5 MB)
    each peaks under 1 MiB."""
    log, clock = make_log()
    _appended(log, clock)
    assert log.log.total_length > 4_000_000
    reads = {"verify": (log.verify, 20_000),
             "verify_durable": (log.verify_durable, 20_000),
             "records_between": (lambda: len(log.records_between(
                 1.0, 1.0009)), 10)}
    for name, (read, expected) in reads.items():
        tracemalloc.start()
        try:
            assert read() == expected, name
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (name, peak)


def test_appending_keeps_no_copy_of_the_sealed_records():
    """The device is the log: after 20,000 SYNC appends the heap holds
    the device's bytes and under 1 MiB besides."""
    tracemalloc.start()
    try:
        log, clock = make_log()
        _appended(log, clock)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert log.record_count == 20_000
    assert held - log.log.total_length < 1 << 20, held


class TestReopen:
    """An audit log over a device that already holds blocks continues
    the chain where it ends."""

    def _log(self, records=12):
        log, clock = make_log(AuditDurability.BATCH, block_size=4)
        for i in range(records):
            clock.advance(0.01)
            log.append("p", "get", key=f"k{i}")
        return log, clock

    @staticmethod
    def _reopened(log, clock):
        log.log.reopen(clock)
        return AuditLog(log.log, clock=clock,
                        durability=AuditDurability.BATCH, block_size=4)

    def test_a_reopened_log_continues_the_chain(self):
        log, clock = make_log()
        for i in range(5):
            log.append("p", "get", key=f"k{i}")
        again = AuditLog(log.log, clock=clock)
        assert (again.record_count, again.blocks_sealed) == (5, 5)
        assert again.at_risk_records() == 0
        again.append("p", "get", key="k5")
        assert again.verify() == again.verify_durable() == 6
        assert [r.key for r in again.records()] == [
            f"k{i}" for i in range(6)]

    def test_a_torn_final_line_is_cut(self):
        log, clock = self._log()
        plan = FaultPlan(log.log)
        plan.tear(6)
        intact = b"".join(lines_of(log)[:-1])
        again = self._reopened(log, clock)
        assert plan.steps == ["truncate"]
        assert log.log.read_all() == log.log.read_durable() == intact
        assert (again.record_count, again.blocks_sealed) == (8, 2)
        for i in range(4):
            again.append("p", "put", key=f"x{i}")
        assert again.verify() == again.verify_durable() == 12

    def test_bytes_never_made_durable_are_cut(self):
        # A seal whose barrier failed left its line written but not
        # durable: a power loss takes it, and the reopen continues the
        # durable chain.
        log, clock = self._log(records=8)
        plan = FaultPlan(log.log)
        plan.fail("fsync")
        with pytest.raises(DeviceIOError):
            for i in range(4):
                log.append("p", "put", key=f"x{i}")
        assert log.log.unsynced_bytes > 0
        plan.power_loss()
        again = self._reopened(log, clock)
        assert again.record_count == again.verify_durable() == 8
        assert log.log.total_length == log.log.durable_length

    def test_an_edited_middle_line_refuses_the_reopen(self):
        log, clock = self._log()
        lines = lines_of(log)
        lines[1] = lines[1].replace(b'"key":"k5"', b'"key":"FORGED"')
        forge(log, b"".join(lines))
        length = log.log.total_length
        with pytest.raises(AuditError, match="block at seq 4: hash"):
            self._reopened(log, clock)
        assert log.log.total_length == length


@pytest.mark.parametrize("tear", [0, 6], ids=["power-loss", "torn-tail"])
@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_store_restarts_on_its_audit_device(variant, tear):
    """Put, lose power (and tear the audit device's final line), reopen
    the store over its devices, put again: both verifiers hold, and the
    chain has lost at most the torn block."""
    clock = SimClock()
    device = AppendLog(clock=clock, name="audit.log")
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](clock),
                      audit=AuditLog(device, clock=clock))

    def put(store, key):
        clock.advance(0.25)
        store.put(key, b"v", GDPRMetadata(owner=key[:2],
                                          purposes=frozenset({"service"})),
                  purpose="service")

    for i in range(4):
        put(store, f"a{i}")
    engine, written = store.kv, store.audit.record_count
    last = len(json.loads(lines_of(store.audit)[-1])["members"])
    devices = [engine.aof_log] + (
        [engine.cold.device] if hasattr(engine, "cold") else [])
    FaultPlan(*devices).power_loss()
    plan = FaultPlan(device)
    plan.power_loss()
    if tear:
        plan.tear(tear)
    store = store.reopen()
    kept = written - last if tear else written
    assert store.audit.record_count == kept
    for i in range(3):
        put(store, f"b{i}")
    assert store.audit.verify() == store.audit.verify_durable() \
        == store.audit.record_count > kept


class TestDurability:
    def test_sync_durable_immediately(self):
        log, _ = make_log(AuditDurability.SYNC)
        log.append("p", "get")
        assert log.at_risk_records() == 0

    def test_no_is_not_an_audit_policy(self):
        # Every seal is a barrier: a policy that never fsyncs is not one
        # the audit log can keep.
        with pytest.raises(ValueError, match="SYNC or BATCH"):
            make_log(AuditDurability.NO)

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
