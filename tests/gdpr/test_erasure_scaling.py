"""Scaling guard for Art. 17: verifying an erasure is not keys x log work.

A count, not a wall-clock floor: Python function calls under
``sys.setprofile`` (the benchmark's ``host.py_calls_per_op``) repeat
exactly on any host.  Before PR 14 ``right_to_erasure`` re-parsed the
whole compacted WAL once per erased key, so the count was proportional to
keys-per-subject *and* to log size; then one C-speed scan of the whole
log per key; now a split log answers it from its parts' index (the
hash of every argument each part's records carry) and decodes only a
part that may mention a key -- after an erasure, none.  The later tests
count simulated time and bytes, and the device calls the residual check
makes: an erasure rewrites the log parts that own the subject's keys,
and its check reads none, so its cost does not grow with the store
either.
"""

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.device.latency import INTEL_750_SSD
from repro.gdpr.audit import AuditDurability
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import right_to_erasure
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.aof import PART_BYTES
from repro.sqlstore import RelationalStore, SqlConfig
from tests.support import py_calls

WIDE_KEYS = 8


def _store(records):
    """A relational fast-GDPR store: subject ``wide`` owns 8 keys,
    ``narrow`` owns 1, every other record has its own subject."""
    clock = SimClock()
    engine = RelationalStore(
        SqlConfig(wal_enabled=True, wal_fsync="everysec",
                  wal_log_reads=True, seed=0),
        clock=clock, wal_log=AppendLog(clock=clock))
    store = GDPRStore(
        kv=engine,
        config=GDPRConfig(encrypt_at_rest=True, fast_gdpr=True,
                          audit_durability=AuditDurability.BATCH,
                          compact_on_erasure=True))
    for i in range(records):
        owner = ("wide" if i < WIDE_KEYS
                 else "narrow" if i == WIDE_KEYS else f"subject-{i}")
        store.put(f"user{i}", b"personal-data" * 8,
                  GDPRMetadata(owner=owner, purposes=frozenset({"service"})),
                  purpose="service")
    store.flush_compliance()
    return store


def _erasure_calls(records, subject):
    """(calls of the whole Art. 17, calls of its log compaction alone)."""
    store = _store(records)
    total, _, receipt = py_calls(lambda: right_to_erasure(store, subject))
    assert receipt.log_compacted and not receipt.residual_in_aof
    # The same rewrite over the same live rows, on its own.
    compaction = py_calls(store.kv.rewrite_aof).total
    return total, compaction


def test_erasure_calls_do_not_scale_with_keys_per_subject():
    """Net of the compaction (the same live rows on both sides), what an
    8-key subject adds over a 1-key one is its 7 extra keys in the one
    DEL -- about 19 calls each (42 when every key was its own DEL) -- at
    any store size (~7.3x, growing with the log, when the residual check
    parsed the log once per key).  Stated net because the compaction
    used to pad both sides with ~3 calls per live row and so hid the
    ratio."""
    net = {}
    for records in (400, 1600):
        for subject in ("wide", "narrow"):
            total, compaction = _erasure_calls(records, subject)
            net[records, subject] = total - compaction
    assert net[400, "wide"] == net[1600, "wide"], net
    assert net[400, "narrow"] == net[1600, "narrow"], net
    per_extra_key = ((net[400, "wide"] - net[400, "narrow"])
                     / (WIDE_KEYS - 1))
    assert 0 < net[400, "narrow"] and 0 < per_extra_key <= 22, net


def test_compaction_formats_a_row_without_a_python_call():
    """The checkpoint's only Python call per live row is the table's row
    generator resuming; SET / PEXPIREAT / GDPRMETA are one ``bytes %``
    each (before PR 19: 3.02 and 3.005 calls per row, two of them
    ``encode_command``)."""
    for records in (400, 1600):
        store = _store(records)
        calls = py_calls(store.kv.rewrite_aof).total
        assert calls / records <= 1.5, (records, calls)


def test_erasure_verification_does_not_scale_with_log_size():
    """The compaction writes one statement per live row by design, so its
    own calls are taken out; what is left -- the DEL, the key erasure,
    the audit record and the residual check over a 4x larger log -- must
    stay flat (parent: ~4x, one full parse of the log per key)."""
    small_total, small_compaction = _erasure_calls(400, "narrow")
    large_total, large_compaction = _erasure_calls(1600, "narrow")
    assert large_compaction > 3 * small_compaction   # the log did grow
    small = small_total - small_compaction
    large = large_total - large_compaction
    assert 0 < small and large < 1.5 * small, (small, large)


# -- Art. 17 in O(subject): the log partitioned by key --------------------

SIZES = (1000, 4000, 16000)
KEYS_PER_SUBJECT = 4


def _ssd_store(records):
    """A relational fast-GDPR store on an SSD-latency WAL, 100-byte
    values, four keys per subject (unencrypted: the envelope costs host
    time and no simulated time)."""
    clock = SimClock()
    engine = RelationalStore(
        SqlConfig(wal_enabled=True, wal_fsync="everysec",
                  wal_log_reads=True, seed=0),
        clock=clock, wal_log=AppendLog(clock=clock, latency=INTEL_750_SSD))
    store = GDPRStore(
        kv=engine,
        config=GDPRConfig(encrypt_at_rest=False, fast_gdpr=True,
                          audit_durability=AuditDurability.BATCH,
                          compact_on_erasure=True))
    purposes = frozenset({"service"})
    for i in range(records):
        store.put(f"user{i}", b"p" * 100,
                  GDPRMetadata(owner=f"subject-{i // KEYS_PER_SUBJECT}",
                               purposes=purposes),
                  purpose="service")
    store.flush_compliance()
    return store


def test_an_erasure_rewrites_its_keys_parts_not_the_store():
    """After the first erasure has split the WAL, one 4-key erasure
    rewrites at most four parts plus one part of slack, behind one
    barrier, and its simulated cost does not grow with the store: about
    0.95 ms at every size, where rewriting the whole log (0.37 / 1.5 /
    6.2 MB) cost 1.2 / 2.3 / 7.0 ms at 1k / 4k / 16k records."""
    p50 = {}
    for records in SIZES:
        store = _ssd_store(records)
        right_to_erasure(store, "subject-0")          # splits the log
        wal, device = store.kv.aof, store.kv.aof_log
        costs = []
        for step in range(1, 6):
            subject = f"subject-{step * 97 % (records // KEYS_PER_SUBJECT)}"
            written, fsyncs = wal.bytes_rewritten, device.fsyncs
            start = store.clock.now()
            receipt = right_to_erasure(store, subject)
            costs.append(store.clock.now() - start)
            assert receipt.log_compacted and not receipt.residual_in_aof
            assert len(receipt.keys_erased) == KEYS_PER_SUBJECT
            assert wal.bytes_rewritten - written \
                <= (KEYS_PER_SUBJECT + 1) * PART_BYTES
            assert device.fsyncs - fsyncs == 1
        p50[records] = sorted(costs)[len(costs) // 2]
    low, high = min(p50.values()), max(p50.values())
    assert high <= 1.15 * low, p50


def test_a_logged_range_naming_an_erased_key_leaves_no_residual():
    """A logged read without key positions (``RANGE start n``) names a
    key in a part that key does not own; the erasure still leaves the
    key nowhere in the log."""
    store = _ssd_store(1000)
    right_to_erasure(store, "subject-0")                 # splits the log
    wal = store.kv.aof
    first = wal._parts[0]
    subject = next(
        f"subject-{i}" for i in range(1, 250)
        if all(wal._part_of(key.encode()) is not first
               for key in store.keys_of_subject(f"subject-{i}")))
    start = store.keys_of_subject(subject)[0]
    store.kv.execute("RANGE", start, 2)
    assert wal.mentioned_keys([start.encode()])
    receipt = right_to_erasure(store, subject)
    assert receipt.log_compacted and not receipt.residual_in_aof
    assert not wal.mentioned_keys([start.encode()])


def test_the_residual_check_reads_no_part_of_a_split_log():
    """When no part mentions the erased keys, the split log's index says
    so: an erasure neither scans a part (``AppendLog.holding``) nor
    reads one (``AppendLog.read_files``), at any store size (before,
    ``holding`` scanned every part once per erasure)."""
    watched = [AppendLog.holding, AppendLog.read_files]
    for records in SIZES:
        store = _ssd_store(records)
        right_to_erasure(store, "subject-0")          # splits the log
        assert store.kv.aof.split
        for step in range(1, 4):
            subject = f"subject-{step * 97 % (records // KEYS_PER_SUBJECT)}"
            calls = py_calls(lambda: right_to_erasure(store, subject),
                             watched)
            receipt = calls.result
            assert receipt.log_compacted and not receipt.residual_in_aof
            assert len(receipt.keys_erased) == KEYS_PER_SUBJECT
            assert calls.watched == dict.fromkeys(watched, 0), \
                (records, calls.watched)
