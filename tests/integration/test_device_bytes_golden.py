"""Golden device bytes: the one-test proof for a "host-only" change.

Three seeded 150-op mini-runs -- one per GDPR stack the repo's benchmark
uses -- pin the sha256 of every device's contents (AOF/WAL, audit log,
cold segments) plus the final simulated clock.  The digests were recorded
at the commit *before* PR 14's host-side rewrites (erasure scan, whole-
buffer XOR, single-pass RESP/audit encoding), so a change that claims to
move no simulated digit and no device byte reruns this file to show it.

A deliberate change to a log format, a cost constant or the envelope
re-records the digests it moves -- and only those -- and says so in
CHANGES.md.  There have been nine: the envelope keystream became one
SHAKE-256 call (AOF/WAL digests of all three runs), cold segment format
v2 (the ``tiered`` run only), Art. 17 became one DEL per store with
one cold barrier per command (the ``fast_relational`` and ``tiered``
runs), a write-behind flush became one ``GDPRMETA`` statement with
the retention deadline fused into the relational ``SET ... PXAT`` (the
``fast_relational`` run only), a demotion batch became one logged
DEL with Art. 17's cold tombstones and marker under one fsync (the
``tiered`` run only), Art. 17 came to audit itself before its
first step (the audit digests of the runs that erase), a block
seal nobody waits for came to be queued on the audit device (the
``fast_relational`` run only), a promotion became a clean cache fill
(the ``tiered`` run only), and the audit log came to one block format
(every audit digest; the AOF/WAL digests and clocks of the SSD runs).
"""

import hashlib
import random

from repro.common.clock import SimClock
from repro.crypto.cipher import seeded_entropy
from repro.device.append_log import AppendLog
from repro.device.latency import INTEL_750_SSD
from repro.gdpr.audit import AuditDurability, AuditLog
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import (right_of_access, right_to_erasure,
                               right_to_portability)
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieredEngine, TieringConfig

OPS = 150
RECORDS = 48
KEYS_PER_SUBJECT = 4
LOG_BASE, LOG_PER_BYTE = 75e-6, 30e-9
ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789 "


def _ssd(clock, name):
    return AppendLog(clock=clock, latency=INTEL_750_SSD, name=name)


def _logged_kv(clock, log, log_reads):
    return KeyValueStore(
        StoreConfig(command_cpu_cost=25e-6, appendonly=True,
                    appendfsync="everysec", aof_log_reads=log_reads,
                    aof_record_base_cost=LOG_BASE,
                    aof_record_per_byte_cost=LOG_PER_BYTE, seed=0),
        clock=clock, aof_log=log)


def _subject_of(index):
    return f"subject-{index // KEYS_PER_SUBJECT}"


def _payload(rng, size=200):
    return bytes(rng.choices(ALPHABET, k=size))


def _metadata(index, ttl=None):
    return GDPRMetadata(owner=_subject_of(index),
                        purposes=frozenset({"service"}), ttl=ttl)


def _load(store, rng, ttl=None):
    for i in range(RECORDS):
        store.put(f"user{i}", _payload(rng), _metadata(i, ttl),
                  purpose="service")


def _read_update(store, rng, live, ttl=None):
    index = rng.choice(live)
    key = f"user{index}"
    if rng.random() < 0.5:
        store.get(key, purpose="service")
    else:
        store.put(key, _payload(rng), _metadata(index, ttl),
                  purpose="service")


def _digest(*devices):
    return {dev.name: hashlib.sha256(dev.read_all()).hexdigest()
            for dev in devices}


def _strict_redislike():
    """AOF everysec + read logging, SYNC audit (one block per request),
    per-subject encryption, TTL 3600 (the ``strict_kv`` stack)."""
    rng = random.Random(7)
    clock = SimClock()
    aof, audit_dev = _ssd(clock, "aof"), _ssd(clock, "audit")
    store = GDPRStore(
        kv=_logged_kv(clock, aof, log_reads=True),
        config=GDPRConfig(encrypt_at_rest=True, compact_on_erasure=False),
        audit=AuditLog(log=audit_dev, clock=clock,
                       durability=AuditDurability.SYNC,
                       record_cpu_cost=5e-6))
    _load(store, rng, ttl=3600.0)
    live = list(range(RECORDS))
    for _ in range(OPS):
        _read_update(store, rng, live, ttl=3600.0)
    store.audit.sync()
    assert store.audit.verify_durable() == store.audit.record_count
    return _digest(aof, audit_dev), clock.now()


def _fast_relational():
    """Relational engine under fast-GDPR (BATCH audit, write-behind) with
    an Art. 15 / 20 / 17 every 20 ops (the ``fast_sql_rights`` stack)."""
    rng = random.Random(7)
    clock = SimClock()
    wal, audit_dev = _ssd(clock, "wal"), _ssd(clock, "audit")
    engine = RelationalStore(
        SqlConfig(wal_enabled=True, wal_fsync="everysec",
                  wal_log_reads=True, wal_record_base_cost=LOG_BASE,
                  wal_record_per_byte_cost=LOG_PER_BYTE,
                  statement_cpu_cost=45e-6, statement_parse_cost=120e-6,
                  statement_plan_cost=60e-6, index_node_cost=2e-6,
                  row_base_cost=6e-6, row_per_byte_cost=8e-9, seed=0),
        clock=clock, wal_log=wal)
    store = GDPRStore(
        kv=engine,
        config=GDPRConfig(encrypt_at_rest=True,
                          audit_durability=AuditDurability.BATCH,
                          compact_on_erasure=True, fast_gdpr=True,
                          audit_block_size=16),
        audit=AuditLog(log=audit_dev, clock=clock,
                       durability=AuditDurability.BATCH, batch_interval=1.0,
                       record_cpu_cost=5e-6, block_size=16))
    _load(store, rng, ttl=3600.0)
    live = list(range(RECORDS))
    rights = (right_of_access, right_to_portability, right_to_erasure)
    subject = 0
    erased = 0
    for op in range(OPS):
        if op % 20 == 19:
            right = rights[(op // 20) % 3]
            result = right(store, f"subject-{subject}")
            if right is right_to_erasure:
                assert not result.residual_in_aof and result.log_compacted
                live = [i for i in live
                        if _subject_of(i) != f"subject-{subject}"]
                erased += 1
            subject += 1
        else:
            _read_update(store, rng, live, ttl=3600.0)
    assert erased == 2
    store.flush_compliance()
    store.audit.sync()
    assert store.audit.verify_durable() == store.audit.record_count
    return _digest(wal, audit_dev), clock.now()


def _tiered():
    """TieredEngine over an AOF-logged redislike engine: three quarters
    of the records are demoted, reads promote some back, and Art. 17
    reaches sealed cold segments (the ``tiered_cold`` stack)."""
    rng = random.Random(7)
    clock = SimClock()
    aof, cold = _ssd(clock, "aof"), _ssd(clock, "cold")
    audit_dev = AppendLog(clock=clock, name="audit")
    engine = TieredEngine(
        _logged_kv(clock, aof, log_reads=False), device=cold,
        tiering=TieringConfig(demote_idle_after=60.0, demote_interval=30.0,
                              segment_max_records=8))
    store = GDPRStore(kv=engine,
                      config=GDPRConfig(encrypt_at_rest=True,
                                        compact_on_erasure=True),
                      audit=AuditLog(log=audit_dev, clock=clock))
    _load(store, rng)
    hot = [i for i in range(RECORDS) if i % KEYS_PER_SUBJECT == 0]
    for _ in range(4):                      # idle gap: the scan demotes
        clock.advance(45.0)
        for index in hot:
            store.get(f"user{index}", purpose="service")
        store.tick()
    assert engine.cold_stats()["segments"] > 0
    live = list(range(RECORDS))
    subject = 0
    cold_voided = 0
    for op in range(OPS):
        if op % 50 == 49:
            receipt = right_to_erasure(store, f"subject-{subject}")
            assert not receipt.residual_in_aof
            cold_voided += receipt.cold_segments_voided
            live = [i for i in live
                    if _subject_of(i) != f"subject-{subject}"]
            subject += 1
        else:
            _read_update(store, rng, live)
    assert subject == 3 and cold_voided > 0
    store.audit.sync()
    assert store.audit.verify_durable() == store.audit.record_count
    return _digest(aof, cold, audit_dev), clock.now()


# One record.  ``strict_redislike`` and ``fast_relational``: audit digests
# and final clocks as recorded at d3009f3 (the parent of PR 14), AOF/WAL
# digests as re-recorded at PR 19 (SHAKE-256 envelope keystream:
# ciphertext and tag bytes moved, no length did).  ``tiered``: re-recorded
# at PR 24 for cold segment format v2 -- the cold device holds CSG2 frames
# (uncompressed, indexed, one record per read), a promote charges one
# record's read instead of a whole segment's, a deletion writes a durable
# tombstone only when a copy is left to kill or harden; the clock, and
# with it every timestamp in the AOF and the audit log, moves.
# ``fast_relational`` and ``tiered``: re-recorded when Art. 17 came to
# look the subject up once and deletes its keys with one DEL (one log
# record instead of one per key), and the tiered run's cold tombstones
# share one fsync per command, so the clock and every timestamp after
# the first erasure move.  ``tiered``: re-recorded when a demotion batch
# came to be logged as one DEL naming its keys (one record instead of one
# per key) and Art. 17's DEL tombstones and subject marker came to share
# one cold fsync: the AOF, the clock and every timestamp move.
# ``strict_redislike`` never erases: unchanged.
# The AOF/WAL and cold digests of all three runs: re-recorded when the
# store stopped drawing a pseudonymization key at construction, which
# shifts every later data key and nonce under the seeded entropy.
# Ciphertext bytes moved; no length, no audit byte and no clock did.
# The audit digests of ``fast_relational`` and ``tiered``: re-recorded
# when Art. 17 came to append its ``erase-subject`` record before its
# first step (under SYNC durable before any erasure barrier), so the
# record's timestamp and place in the chain moved; no other device byte
# and no clock did.
# ``tiered``: re-recorded when the everysec fsync moved to the AOF
# device's timer.  The run idles four times for 45 s; the fsync that the
# first command after each gap used to pay (0.8 ms) now fires at a 1-s
# grid instant inside the gap, so the clock ends 3.2 ms earlier
# (180.031901774998 -> 180.028701808998) and every later timestamp, and
# with it the AOF, cold and audit bytes, moves.  The same change moved
# the ``tier-cold-erase`` record ahead of the erasure's one audit commit
# (alone, it moves only the audit digest).  The other two runs end
# before the first firing: unchanged.
# ``strict_redislike`` and ``fast_relational``: re-recorded when a value
# and its retention deadline became one ``SET..PXAT`` log record on
# every path.  The strict put is one engine command and one AOF record
# instead of ``SET`` + ``PEXPIREAT`` (0.19332046999999966 ->
# 0.18182575399999928: one command and one record's charge less per
# put, and every later timestamp moves); the fast run's puts were fused
# already, but its erasures' log compaction writes each string record
# as one ``SET..PXAT`` statement, so the WAL shrinks and the clock ends
# 1.4 us earlier (0.0476819780000002 -> 0.04768057900000018), which
# moves the audit timestamps after the first erasure.  ``tiered``:
# unchanged.
# ``fast_relational``: re-recorded when a block seal nobody waits for
# (one by size or at a firing) came to be queued on the audit device
# instead of charged to the put that filled the block.  The run's seals
# by size no longer cost their caller 0.8 ms each, so the clock ends
# 10.4 ms earlier (0.04768057900000018 -> 0.03728181900000009) and
# every later timestamp, and with it the WAL and audit bytes, moves.
# The other two runs seal no block: unchanged.
# ``tiered``: re-recorded when a promotion became a clean cache fill.
# The run's 22 promotions append no AOF record (143 -> 121 records
# written) and no cold tombstone, and a SET over a demoted key makes its
# cold copy a shadow instead of tombstoning it (36 -> 9 tombstones), so
# the clock ends 2.1 ms earlier (180.028701808998 -> 180.0266365979984)
# and the AOF, cold and audit bytes move.  The other two runs build no
# tiered engine: unchanged.
# Every audit digest: re-recorded when the audit log came to one format
# (a SYNC request seals one block; a block's line holds its members'
# bodies, its seal instant and its hash, no record-mode line).  The
# audit bytes shrink (strict 67,174 -> 51,481, fast 43,833 -> 33,898,
# tiered 94,659 -> 69,990), so the two SSD runs' per-byte write charges
# fall and their clocks end earlier (strict 0.18182575399999928 ->
# 0.18180748800000013, fast 0.03728181900000009 ->
# 0.03727224200000008), which moves the deadlines in their AOF/WAL
# bytes too.  ``tiered`` audits on a zero-latency device: its clock, AOF
# and cold bytes are unchanged.
# Every digest and clock: re-recorded when a sealed value came to start
# with its subject's 16-byte sid (``KeyStore.seal``).  Each sealed value
# in the AOF/WAL is 16 bytes longer, give or take the length of the
# ``created_at`` repr in its sealed header (AOF/WAL strict 57,097 ->
# 58,919, fast 29,487 -> 30,325, tiered 16,321 -> 16,906; cold 20,034
# -> 20,761), so the per-byte write and read charges end each clock
# later (strict 0.18180748800000013 -> 0.18186400200000058, fast
# 0.03727224200000008 -> 0.037355460999999944, tiered 180.0266365979984
# -> 180.02670074199898) and every later timestamp, audit bytes
# included, moves.
GOLDEN = {
    "strict_redislike": ({
        "aof": "2c8734db8f010cd184ff831f59882b2e"
               "0317a78499c82d870979b7984ebfc3c5",
        "audit": "0a2ac575002a62076e8595ef2951d432"
                 "794fa471300d67d2082457dba70aecfc",
    }, 0.18186400200000058),
    "fast_relational": ({
        "wal": "955f2461d41443595817b78cc8f06d11"
               "7d981945090cdc426cb0a23e7d9afd7a",
        "audit": "fbd797b62c02c0604ffeef2c3055faa2"
                 "1698fb19d14cafe369c25b989d08fc1c",
    }, 0.037355460999999944),
    "tiered": ({
        "aof": "6b273c4cc8e769bf2d2de655ddcfe90c"
               "7a5a07d0dcc234332a66b12ff8ce5da1",
        "cold": "35406330d35c669024c5e372d14129ea"
                "745b9de02cb4907b6cb8881b710d2b6d",
        "audit": "096f66f38c20320c7a944bd4949a9604"
                 "0c8738aaef64df97dddf70ae015155b4",
    }, 180.02670074199898),
}

RUNS = {
    "strict_redislike": _strict_redislike,
    "fast_relational": _fast_relational,
    "tiered": _tiered,
}


def _run(name):
    with seeded_entropy(7):
        return RUNS[name]()


def test_runs_repeat_exactly():
    for name in RUNS:
        assert _run(name) == _run(name), name


def test_device_bytes_and_clock_match_the_shipped_envelope():
    for name, (digests, now) in GOLDEN.items():
        got_digests, got_now = _run(name)
        assert got_digests == digests, name
        assert repr(got_now) == repr(now), name
