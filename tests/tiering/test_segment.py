"""Unit tests for the cold segment store: sealing, lookup, tombstone
versioning, subject erasure, expiry, and device-level recovery."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import CorruptionError
from repro.crypto.keystore import KeyStore
from repro.device.append_log import AppendLog
from repro.device.faults import FaultPlan
from repro.device.latency import INTEL_750_SSD
from repro.tiering.segment import (ColdInput, ColdSegmentStore,
                                   UnsupportedSegmentFormat)


def make_store(keystore=None):
    clock = SimClock()
    device = AppendLog(clock=clock, name="cold.seg")
    return ColdSegmentStore(device=device, keystore=keystore), device


def inputs(*pairs, owner=None, expire_at=None):
    return [ColdInput(k, v, expire_at, owner) for k, v in pairs]


def test_seal_lookup_round_trip():
    store, _ = make_store()
    store.seal(inputs((b"a", b"1"), (b"b", b"2")), sealed_at=0.0)
    entry = store.lookup(b"a")
    assert entry is not None
    assert store.open_value(entry) == b"1"
    assert store.lookup(b"missing") is None
    assert store.live_count() == 2


def test_expire_and_owner_preserved():
    store, _ = make_store()
    store.seal([ColdInput(b"k", b"v", 42.0, "alice")], sealed_at=1.0)
    entry = store.lookup(b"k")
    assert entry.expire_at == 42.0
    assert entry.owner == "alice"
    assert not entry.encrypted          # no keystore attached
    assert store.open_value(entry) == b"v"


def test_newest_segment_wins():
    store, _ = make_store()
    store.seal(inputs((b"k", b"old")), sealed_at=0.0)
    store.seal(inputs((b"k", b"new")), sealed_at=1.0)
    assert store.open_value(store.lookup(b"k")) == b"new"


def test_tombstone_versioning():
    store, _ = make_store()
    store.seal(inputs((b"k", b"old")), sealed_at=0.0)
    store.tombstone_key(b"k")
    assert store.lookup(b"k") is None
    # A re-demoted copy sealed after the tombstone must survive it.
    store.seal(inputs((b"k", b"again")), sealed_at=1.0)
    assert store.open_value(store.lookup(b"k")) == b"again"
    store.tombstone_key(b"k")
    assert store.lookup(b"k") is None


def test_tombstone_is_written_only_when_it_kills():
    store, device = make_store()
    store.seal(inputs((b"k", b"v"), (b"other", b"v")), sealed_at=0.0)
    store.tombstone_key(b"never-sealed")
    assert store.tombstones == 0
    # Every tombstone is committed: outside a barrier scope, durable as
    # it is written ...
    store.tombstone_key(b"k")
    assert store.tombstones == 1
    assert device.durable_length == device.total_length
    # ... and written once: a dead key has nothing left to kill.
    store.tombstone_key(b"k")
    assert store.tombstones == 1
    # A shadow is a live copy, killed like any other.
    assert store.shadow(b"other")
    store.tombstone_key(b"other")
    assert store.tombstones == 2
    recovered = ColdSegmentStore(device=device)
    assert recovered.live_keys() == []


def test_subject_erasure_is_crypto_erasure():
    keystore = KeyStore()
    store, _ = make_store(keystore)
    store.seal(inputs((b"a:1", b"secret"), owner="alice")
               + inputs((b"b:1", b"fine"), owner="bob"), sealed_at=0.0)
    assert store.lookup(b"a:1").encrypted
    assert store.open_value(store.lookup(b"a:1")) == b"secret"
    touched = store.erase_subject("alice")
    assert touched == [0]
    assert store.lookup(b"a:1") is None          # entry no longer live
    assert store.keys_of_subject("alice") == []
    assert store.open_value(store.lookup(b"b:1")) == b"fine"
    # Erasure also voids the ciphertext itself once the key dies.
    keystore.erase_key("alice")
    assert "alice" in store.erased_subjects


def test_keys_of_subject_uses_blooms():
    store, _ = make_store(KeyStore())
    store.seal(inputs((b"a:1", b"x"), (b"a:2", b"y"), owner="alice"),
               sealed_at=0.0)
    store.seal(inputs((b"b:1", b"z"), owner="bob"), sealed_at=1.0)
    assert store.keys_of_subject("alice") == [b"a:1", b"a:2"]
    assert store.segments_of_subject("bob") == [1]
    assert store.keys_of_subject("nobody") == []


def test_lookup_reads_one_record_and_a_miss_reads_nothing():
    clock = SimClock()
    device = AppendLog(clock=clock, latency=INTEL_750_SSD, name="cold.seg")
    store = ColdSegmentStore(device=device)
    store.seal(inputs(*[(b"k%d" % i, b"v" * 100) for i in range(32)]),
               sealed_at=0.0)
    before = clock.now()
    assert store.lookup(b"absent") is None
    assert store.slot_of(b"absent") is None
    assert store.slot_of(b"k7").seq == 0
    assert store.live_count() == 32 and len(store.live_keys()) == 32
    assert clock.now() == before and device.reads == 0
    entry = store.lookup(b"k7")
    assert entry.stored == b"v" * 100
    assert device.reads == 1 and store.entry_reads == 1
    # u32 klen | key | flags | value | u32 crc: that record, no more.
    record_bytes = 4 + 2 + 1 + 100 + 4
    assert clock.now() - before == pytest.approx(
        INTEL_750_SSD.read_cost(record_bytes))


def test_subject_enumeration_reads_index_blocks_not_values():
    clock = SimClock()
    device = AppendLog(clock=clock, latency=INTEL_750_SSD, name="cold.seg")
    store = ColdSegmentStore(device=device, fp_rate=0.5)
    for seg in range(12):
        store.seal(inputs((b"s%d" % seg, b"v" * 4000),
                          owner="subject-%d" % seg), sealed_at=0.0)
    before = clock.now()
    assert store.keys_of_subject("subject-3") == [b"s3"]
    assert device.reads == len(store.segments_of_subject("subject-3"))
    assert store.entry_reads == 0
    # An index block, not 4 kB of value, per candidate segment.
    assert clock.now() - before < device.reads * INTEL_750_SSD.read_cost(200)
    # A bloom candidate that holds nothing of the subject is the counted
    # false positive (hashing is deterministic: some ghost collides).
    ghost = next(name for name in ("ghost-%d" % i for i in range(1000))
                 if store.segments_of_subject(name))
    false_before = store.bloom_false_positives
    assert store.keys_of_subject(ghost) == []
    assert store.bloom_false_positives - false_before == \
        len(store.segments_of_subject(ghost))


def test_pop_expired_orders_and_filters():
    store, _ = make_store()
    store.seal([ColdInput(b"soon", b"1", 5.0, None),
                ColdInput(b"later", b"2", 50.0, None),
                ColdInput(b"never", b"3", None, None)], sealed_at=0.0)
    assert store.pop_expired(now=10.0) == [b"soon"]
    store.tombstone_key(b"soon")
    assert store.pop_expired(now=100.0) == [b"later"]


def test_recovery_from_device_bytes():
    store, device = make_store(KeyStore())
    store.seal(inputs((b"a", b"1"), owner="alice"), sealed_at=0.0)
    store.seal(inputs((b"b", b"2"), (b"c", b"3")), sealed_at=1.0)
    store.tombstone_key(b"b")
    store.erase_subject("alice")
    recovered = ColdSegmentStore(device=device, keystore=store.keystore)
    assert recovered.recovered_segments == 2
    assert recovered.lookup(b"a") is None        # subject erased
    assert recovered.lookup(b"b") is None        # tombstoned
    assert recovered.open_value(recovered.lookup(b"c")) == b"3"
    assert "alice" in recovered.erased_subjects


def test_recovery_drops_torn_tail():
    store, device = make_store()
    store.seal(inputs((b"a", b"1")), sealed_at=0.0)
    store.seal(inputs((b"b", b"2")), sealed_at=1.0)
    FaultPlan(device).tear(6)                    # bit-flip into the last frame
    recovered = ColdSegmentStore(device=device)
    assert recovered.torn_frames_dropped == 1
    assert recovered.recovered_segments == 1
    assert recovered.open_value(recovered.lookup(b"a")) == b"1"
    assert recovered.lookup(b"b") is None


def test_a_seal_after_a_torn_tail_survives_the_next_recovery():
    """Recovery cuts the torn frame from the device, so the next seal
    follows the last good frame instead of landing behind garbage that
    would stop the next recovery short of it."""
    store, device = make_store()
    store.seal(inputs((b"a", b"1")), sealed_at=0.0)
    store.seal(inputs((b"b", b"2")), sealed_at=1.0)
    FaultPlan(device).tear(6)
    recovered = ColdSegmentStore(device=device)
    assert (recovered.recovered_segments,
            recovered.torn_frames_dropped) == (1, 1)
    recovered.seal(inputs((b"c", b"3")), sealed_at=2.0)
    again = ColdSegmentStore(device=device)
    assert (again.recovered_segments, again.torn_frames_dropped) == (2, 0)
    assert again.open_value(again.lookup(b"c")) == b"3"
    assert again.open_value(again.lookup(b"a")) == b"1"
    assert again.lookup(b"b") is None


def test_clear_keeps_erased_subjects():
    store, device = make_store(KeyStore())
    store.seal(inputs((b"a", b"1"), owner="alice"), sealed_at=0.0)
    store.erase_subject("alice")
    store.clear()
    assert store.segment_count == 0
    assert "alice" in store.erased_subjects
    # ... and the marker survives recovery of the cleared device.
    recovered = ColdSegmentStore(device=device)
    assert recovered.segment_count == 0
    assert "alice" in recovered.erased_subjects


def test_checksummed_payload_detects_corruption():
    store, device = make_store()
    store.seal(inputs((b"a", b"1111"), (b"b", b"2222"), (b"c", b"3333")),
               sealed_at=0.0)
    slot = store.slot_of(b"b")
    device._data[slot.offset + slot.length - 5] ^= 0x01   # in b's value
    with pytest.raises(CorruptionError, match="checksum"):
        store.lookup(b"b")
    # Only that entry: its neighbours and the index block still verify.
    assert store.lookup(b"a").stored == b"1111"
    assert store.lookup(b"c").stored == b"3333"
    assert store.keys_of_subject("nobody") == []


def test_corrupt_index_block_is_detected_on_read():
    store, device = make_store()
    seq = store.seal(inputs((b"a", b"1"), owner="alice"), sealed_at=0.0)
    device._data[store._segments[seq].index_offset] ^= 0x01
    with pytest.raises(CorruptionError, match="index checksum"):
        store.keys_of_subject("alice")


def _sealed_device(*segments):
    store, device = make_store()
    for segment in segments:
        store.seal(segment, sealed_at=0.0)
    return device.read_all()


def test_power_loss_at_every_byte_of_a_seal_frame():
    """Whatever prefix of a seal frame reached the device, recovery sees
    the segment whole or not at all -- never a partial directory."""
    first = inputs((b"a", b"1"), (b"b", b"2"), owner="alice")
    second = inputs((b"b", b"22"), (b"c", b"3"), expire_at=9.0)
    intact = _sealed_device(first)
    full = _sealed_device(first, second)
    for cut in range(len(intact), len(full) + 1):
        device = AppendLog(clock=SimClock(), name="cold.seg")
        device.append(full[:cut])
        device.flush_and_fsync()
        recovered = ColdSegmentStore(device=device)
        if cut == len(full):
            assert recovered.recovered_segments == 2
            assert sorted(recovered.live_keys()) == [b"a", b"b", b"c"]
            assert recovered.lookup(b"b").stored == b"22"
            assert recovered.pop_expired(now=10.0) == [b"b", b"c"]
        else:
            assert recovered.recovered_segments == 1, cut
            assert recovered.torn_frames_dropped == (cut > len(intact))
            assert sorted(recovered.live_keys()) == [b"a", b"b"]
            assert recovered.lookup(b"b").stored == b"2"
            assert recovered.pop_expired(now=10.0) == []


def test_v1_segment_frame_is_refused_by_name():
    store, device = make_store()
    store.seal(inputs((b"a", b"1")), sealed_at=0.0)
    device.append(b"CSG1" + b"\x00\x00\x00\x04body" + b"\x00" * 4)
    device.flush_and_fsync()
    with pytest.raises(UnsupportedSegmentFormat, match="CSG1"):
        ColdSegmentStore(device=device)


def test_resident_bytes_counts_every_resident_structure():
    store, _ = make_store()
    assert store.resident_bytes() == 0
    store.seal([ColdInput(b"k1", b"v" * 500, None, "alice"),
                ColdInput(b"key22", b"v" * 500, 7.0, None)], sealed_at=0.0)
    bloom = store._segments[0].subject_bloom.byte_size()
    segment = 32 + bloom                 # seq, sealed_at, index offset/len/crc
    directory = (2 + 24) + (5 + 24)      # key + seq, offset, length, deadline
    heap = 5 + 16                        # key + deadline, seq
    assert store.resident_bytes() == segment + directory + heap
    # No payload: 1000 value bytes are on the device only.
    assert store.resident_bytes() < 200 < store.device.total_length
    assert store.shadow(b"key22")        # a shadow keeps its slot
    assert store.resident_bytes() == segment + directory + heap
    store.tombstone_key(b"key22")
    assert store.resident_bytes() == segment + (2 + 24) + heap
    store.erase_subject("alice")
    assert store.resident_bytes() == segment + heap + len("alice") + 4


def test_empty_seal_rejected():
    store, _ = make_store()
    with pytest.raises(ValueError):
        store.seal([], sealed_at=0.0)


def test_stats_counters():
    store, _ = make_store()
    store.seal(inputs((b"a", b"1"), (b"b", b"2")), sealed_at=0.0)
    store.tombstone_key(b"a")
    stats = store.stats()
    assert stats["seals"] == 1
    assert stats["sealed_entries"] == 2
    assert stats["tombstones"] == 1
    assert stats["segments"] == 1
    assert stats["entry_reads"] == 0 and "decompressions" not in stats


def test_a_shadow_is_answered_by_no_cold_only_view():
    """A copy whose key the hot tier holds keeps its slot (and costs no
    device write) but is no cold key: membership, lookup, enumeration,
    subject lookup and expiry skip it until it is released."""
    store, device = make_store()
    store.seal([ColdInput(b"a:1", b"v", 5.0, "alice"),
                ColdInput(b"a:2", b"v", None, "alice")], sealed_at=0.0)
    written = device.total_length
    assert store.shadow(b"a:1") and not store.shadow(b"absent")
    assert device.total_length == written
    assert store.slot_of(b"a:1") is None and store.lookup(b"a:1") is None
    assert store.live_keys() == [b"a:2"] and store.live_count() == 1
    assert store.keys_of_subject("alice") == [b"a:2"]
    assert store.pop_expired(now=10.0) == []
    assert store.stats()["shadows"] == 1
    assert store.shadow(b"a:1", held=False)
    assert not store.shadow(b"absent", held=False)
    assert store.slot_of(b"a:1").seq == 0
    assert store.keys_of_subject("alice") == [b"a:1", b"a:2"]
    assert store.stats()["shadows"] == 0
    store.settle_shadows({b"a:2", b"elsewhere"})
    assert store.live_keys() == [b"a:1"]
    store.settle_shadows(set())
    assert sorted(store.live_keys()) == [b"a:1", b"a:2"]


def test_dead_bytes_count_every_copy_no_longer_live():
    """Tombstoned, superseded, erased and cleared copies are dead bytes
    -- the sealed record bytes minus the live ones -- and recovery
    counts them again from the frames."""
    store, device = make_store()

    def length(*keys):
        return sum(store.slot_of(key).length for key in keys)

    store.seal(inputs((b"a", b"1"), (b"b", b"22"), (b"c", b"333")),
               sealed_at=0.0)
    sealed = length(b"a", b"b", b"c")
    assert store.stats()["dead_bytes"] == 0
    store.tombstone_key(b"a")
    store.seal(inputs((b"b", b"newer")), sealed_at=1.0)     # supersedes
    sealed += length(b"b")
    assert store.dead_bytes == sealed - length(b"b", b"c") > 0
    assert ColdSegmentStore(device=device).dead_bytes == store.dead_bytes
    store.seal([ColdInput(b"d", b"4", None, "dave")], sealed_at=2.0)
    sealed += length(b"d")
    store.erase_subject("dave")
    assert store.dead_bytes == sealed - length(b"b", b"c")
    store.clear()
    assert store.dead_bytes == sealed and store.live_count() == 0
    assert ColdSegmentStore(device=device).dead_bytes == sealed
