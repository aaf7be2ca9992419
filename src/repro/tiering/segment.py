"""Cold segment store: batch-sealed, checksummed, compressed archives.

A :class:`ColdSegmentStore` is the archive half of the tiered keyspace.
It lives on one :class:`~repro.device.append_log.AppendLog` device and
speaks a framed, self-describing format so a store can be rebuilt from
device bytes alone after a crash:

``frame := magic(4) | u32 body_len | body | u32 crc32(body)``

Four frame kinds:

* ``CSG1`` -- a sealed segment: JSON header (entry count, payload CRC,
  sealing timestamp), the two serialized bloom filters (member keys,
  member subjects), then the zlib-compressed entry payload.  Values of
  entries with a known data subject are sealed under that subject's key
  from the shared :class:`~repro.crypto.keystore.KeyStore`, so
  crypto-erasure voids them in place -- no segment rewrite.
* ``CTB1`` -- a key tombstone, versioned by segment sequence: it kills
  copies of the key in segments up to ``up_to_seq`` but not copies
  sealed later (a key may be demoted again after a promote).
* ``CSB1`` -- a subject-erasure marker: every entry owned by the subject
  is dead in every segment, past and future (mirrors the keystore's
  tombstone-forever semantics).
* ``CCL1`` -- a clear marker (FLUSHDB/FLUSHALL reached the archive).

Durability discipline: sealing and deletion-like mutations end with a
``flush(); fsync()`` barrier *before* the caller removes hot copies, so
a crash at any point leaves the record in at least one tier and never
resurrects a deleted one.  A torn final frame (crash mid-seal) fails its
length or CRC check and is dropped at recovery.
"""

from __future__ import annotations

import heapq
import json
import struct
import zlib
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..common.hashing import crc32_of
from ..device.append_log import AppendLog
from .bloom import BloomFilter

MAGIC_SEGMENT = b"CSG1"
MAGIC_TOMBSTONE = b"CTB1"
MAGIC_SUBJECT = b"CSB1"
MAGIC_CLEAR = b"CCL1"

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")

_FLAG_ENCRYPTED = 1
_FLAG_EXPIRE = 2
_FLAG_OWNER = 4

#: Decompressed segments kept around for repeat lookups (page cache).
_DECODE_CACHE_SEGMENTS = 4

#: AAD prefix binding a cold ciphertext to its key, so a sealed value
#: cannot be replayed under a different key name.
_COLD_AAD_PREFIX = b"cold:"


class ColdInput(NamedTuple):
    """One record handed to :meth:`ColdSegmentStore.seal`."""

    key: bytes
    value: bytes
    expire_at: Optional[float]
    owner: Optional[str]


class ColdEntry(NamedTuple):
    """One archived record, as stored inside a segment."""

    seq: int
    key: bytes
    stored: bytes            # ciphertext when encrypted, else plaintext
    encrypted: bool
    expire_at: Optional[float]
    owner: Optional[str]


class SegmentInfo(NamedTuple):
    """The in-RAM index entry for one sealed segment."""

    seq: int
    count: int
    sealed_at: float
    payload_crc: int
    compressed: bytes        # the resident (compressed) form
    key_bloom: BloomFilter
    subject_bloom: BloomFilter


def _pack_entries(entries: List[ColdEntry]) -> bytes:
    parts: List[bytes] = []
    for entry in entries:
        flags = 0
        if entry.encrypted:
            flags |= _FLAG_ENCRYPTED
        if entry.expire_at is not None:
            flags |= _FLAG_EXPIRE
        if entry.owner is not None:
            flags |= _FLAG_OWNER
        parts.append(_U32.pack(len(entry.key)))
        parts.append(entry.key)
        parts.append(bytes([flags]))
        if entry.expire_at is not None:
            parts.append(_F64.pack(entry.expire_at))
        if entry.owner is not None:
            owner = entry.owner.encode("utf-8")
            parts.append(_U32.pack(len(owner)))
            parts.append(owner)
        parts.append(_U32.pack(len(entry.stored)))
        parts.append(entry.stored)
    return b"".join(parts)


def _unpack_entries(seq: int, payload: bytes) -> List[ColdEntry]:
    entries: List[ColdEntry] = []
    pos = 0
    end = len(payload)
    while pos < end:
        (klen,) = _U32.unpack_from(payload, pos)
        pos += 4
        key = payload[pos:pos + klen]
        pos += klen
        flags = payload[pos]
        pos += 1
        expire_at = None
        if flags & _FLAG_EXPIRE:
            (expire_at,) = _F64.unpack_from(payload, pos)
            pos += 8
        owner = None
        if flags & _FLAG_OWNER:
            (olen,) = _U32.unpack_from(payload, pos)
            pos += 4
            owner = payload[pos:pos + olen].decode("utf-8")
            pos += olen
        (vlen,) = _U32.unpack_from(payload, pos)
        pos += 4
        stored = payload[pos:pos + vlen]
        pos += vlen
        entries.append(ColdEntry(seq, key, stored,
                                 bool(flags & _FLAG_ENCRYPTED),
                                 expire_at, owner))
    return entries


class ColdSegmentStore:
    """The archive tier on one append-only device.

    The resident state is deliberately small: per segment the compressed
    bytes plus two bloom filters, a global expiry heap for TTL'd cold
    entries, and the tombstone maps.  There is NO exact key index --
    membership is answered bloom-first, decompressing only candidate
    segments (counted in :attr:`bloom_false_positives` when the
    candidate misses).
    """

    def __init__(self, device: Optional[AppendLog] = None,
                 keystore: Optional[object] = None,
                 fp_rate: float = 0.01,
                 compress_level: int = 6) -> None:
        self.device = device if device is not None else AppendLog(name="cold.seg")
        self.keystore = keystore
        self.fp_rate = fp_rate
        self.compress_level = compress_level
        self._segments: "OrderedDict[int, SegmentInfo]" = OrderedDict()
        self._next_seq = 0
        # key -> highest segment seq whose copies are dead.
        self._dead_upto: Dict[bytes, int] = {}
        # The durably-persisted subset of the above: a non-durable
        # tombstone (promote eviction, shadow eviction) may be lost to
        # power loss, so a later deletion-like mutation must be able to
        # re-issue it durably even though RAM already considers the key
        # dead.
        self._dead_durable: Dict[bytes, int] = {}
        self._erased_subjects: Set[str] = set()
        # (expire_at, seq, key) heap-ordered list for active cold expiry.
        self._expiry: List[Tuple[float, int, bytes]] = []
        # Decompressed-entry cache, seq -> {key: ColdEntry} (newest wins
        # inside one segment is irrelevant: keys are unique per segment).
        self._decode_cache: "OrderedDict[int, Dict[bytes, ColdEntry]]" = OrderedDict()
        # Counters (cold_stats surface).
        self.seals = 0
        self.sealed_entries = 0
        self.tombstones = 0
        self.subject_erasures = 0
        self.bloom_false_positives = 0
        self.decompressions = 0
        self.recovered_segments = 0
        self.torn_frames_dropped = 0
        if self.device.total_length:
            self._recover()

    # -- small helpers -------------------------------------------------------

    def attach_keystore(self, keystore: object) -> None:
        self.keystore = keystore

    def _frame(self, magic: bytes, body: bytes) -> bytes:
        return magic + _U32.pack(len(body)) + body + _U32.pack(crc32_of(body))

    def _append_frame(self, magic: bytes, body: bytes,
                      durable: bool = True) -> None:
        self.device.append(self._frame(magic, body))
        if durable:
            self.device.flush_and_fsync()
        else:
            self.device.flush()

    def _cache_entries(self, info: SegmentInfo) -> Dict[bytes, ColdEntry]:
        cached = self._decode_cache.get(info.seq)
        if cached is not None:
            self._decode_cache.move_to_end(info.seq)
            return cached
        # A cache miss is a media read of the compressed segment.
        self.device.clock.advance(
            self.device.latency.read_cost(len(info.compressed)))
        payload = zlib.decompress(info.compressed)
        if crc32_of(payload) != info.payload_crc:
            raise ValueError(
                f"cold segment {info.seq} payload checksum mismatch")
        self.decompressions += 1
        entries = {e.key: e for e in _unpack_entries(info.seq, payload)}
        self._decode_cache[info.seq] = entries
        while len(self._decode_cache) > _DECODE_CACHE_SEGMENTS:
            self._decode_cache.popitem(last=False)
        return entries

    def _entry_live(self, entry: ColdEntry) -> bool:
        if self._dead_upto.get(entry.key, -1) >= entry.seq:
            return False
        if entry.owner is not None and entry.owner in self._erased_subjects:
            return False
        return True

    # -- sealing -------------------------------------------------------------

    def seal(self, inputs: List[ColdInput], sealed_at: float) -> int:
        """Seal one segment from ``inputs``; returns its sequence number.

        Ends with a flush+fsync durability barrier: when this returns,
        the archived copies survive power loss, and the caller may drop
        the hot copies.
        """
        if not inputs:
            raise ValueError("cannot seal an empty segment")
        seq = self._next_seq
        entries: List[ColdEntry] = []
        for item in inputs:
            stored = item.value
            encrypted = False
            if item.owner is not None and self.keystore is not None:
                cipher = self.keystore.cipher_for(item.owner)
                stored = cipher.seal(item.value,
                                     aad=_COLD_AAD_PREFIX + item.key)
                encrypted = True
            entries.append(ColdEntry(seq, item.key, stored, encrypted,
                                     item.expire_at, item.owner))
        payload = _pack_entries(entries)
        compressed = zlib.compress(payload, self.compress_level)
        key_bloom = BloomFilter.for_capacity(len(entries), self.fp_rate)
        subject_bloom = BloomFilter.for_capacity(len(entries), self.fp_rate)
        for entry in entries:
            key_bloom.add(entry.key)
            if entry.owner is not None:
                subject_bloom.add(entry.owner.encode("utf-8"))
        header = json.dumps({
            "seq": seq,
            "count": len(entries),
            "payload_crc": crc32_of(payload),
            "sealed_at": sealed_at,
        }, sort_keys=True).encode("utf-8")
        kbloom = key_bloom.to_bytes()
        sbloom = subject_bloom.to_bytes()
        body = b"".join([
            _U32.pack(len(header)), header,
            _U32.pack(len(kbloom)), kbloom,
            _U32.pack(len(sbloom)), sbloom,
            compressed,
        ])
        self._append_frame(MAGIC_SEGMENT, body, durable=True)
        self._register_segment(SegmentInfo(seq, len(entries), sealed_at,
                                           crc32_of(payload), compressed,
                                           key_bloom, subject_bloom))
        self._next_seq = seq + 1
        self.seals += 1
        self.sealed_entries += len(entries)
        return seq

    def _register_segment(self, info: SegmentInfo) -> None:
        self._segments[info.seq] = info
        # Registration needs per-entry expiries; going through the decode
        # cache also leaves the freshly-sealed segment hot for the first
        # lookups.
        for entry in self._cache_entries(info).values():
            if entry.expire_at is not None:
                heapq.heappush(self._expiry,
                               (entry.expire_at, entry.seq, entry.key))

    # -- membership & lookup -------------------------------------------------

    def _candidates(self, key: bytes, dead_upto: int):
        """Segments newer than ``dead_upto`` whose key bloom is positive
        for ``key``, newest first: one hash of the key, one early-exit
        probe per segment, nothing decompressed."""
        h1, h2 = BloomFilter.hash_pair(key)
        for info in reversed(self._segments.values()):
            if info.seq <= dead_upto:
                break  # older segments are all dead for this key
            if info.key_bloom.contains_hashed(h1, h2):
                yield info

    def may_contain(self, key: bytes,
                    ignore_tombstones: bool = False) -> bool:
        """Bloom-only membership probe (no decompression).

        With ``ignore_tombstones`` the probe asks whether *any* archived
        copy may exist, dead or alive -- what a deletion needs to decide
        whether a durable tombstone is warranted (the RAM tombstone that
        killed the copy may itself not be durable).
        """
        dead_upto = -1 if ignore_tombstones \
            else self._dead_upto.get(key, -1)
        return next(self._candidates(key, dead_upto), None) is not None

    def lookup(self, key: bytes) -> Optional[ColdEntry]:
        """Newest live copy of ``key``, or None.

        Bloom-first: only bloom-positive segments are decompressed, and
        a positive that turns out to hold no copy is counted in
        :attr:`bloom_false_positives`.
        """
        for info in self._candidates(key, self._dead_upto.get(key, -1)):
            entry = self._cache_entries(info).get(key)
            if entry is None:
                self.bloom_false_positives += 1
                continue
            if not self._entry_live(entry):
                return None
            return entry
        return None

    def open_value(self, entry: ColdEntry) -> Optional[bytes]:
        """Recover the plaintext value, or None when crypto-erased or
        otherwise unreadable (an unreadable archive entry is, by
        construction, erased)."""
        if not self._entry_live(entry):
            return None
        if not entry.encrypted:
            return entry.stored
        if self.keystore is None or entry.owner is None:
            return None
        try:
            cipher = self.keystore.cipher_for(entry.owner, create=False)
            return cipher.open(entry.stored,
                               aad=_COLD_AAD_PREFIX + entry.key)
        except Exception:
            return None

    # -- enumeration ---------------------------------------------------------

    def live_entries(self, include_expired: bool,
                     now: Optional[float] = None) -> Dict[bytes, ColdEntry]:
        """Newest live entry per key (the exact cold keyspace).

        This is the bloom-index *fallback* path: it decompresses every
        segment, so it backs full-keyspace operations (KEYS, SCAN
        completion, ``scan_records``) rather than point reads.
        """
        result: Dict[bytes, ColdEntry] = {}
        for seq in reversed(self._segments):
            info = self._segments[seq]
            for key, entry in self._cache_entries(info).items():
                if key in result:
                    continue  # a newer segment already supplied this key
                if self._dead_upto.get(key, -1) >= seq:
                    continue
                if not self._entry_live(entry):
                    continue
                if (not include_expired and entry.expire_at is not None
                        and now is not None and entry.expire_at <= now):
                    continue
                result[key] = entry
        return result

    def live_count(self, include_expired: bool = True,
                   now: Optional[float] = None) -> int:
        return len(self.live_entries(include_expired, now))

    # -- deletion-like mutations ---------------------------------------------

    def tombstone_key(self, key: bytes, up_to_seq: Optional[int] = None,
                      durable: bool = True) -> None:
        """Kill copies of ``key`` in segments up to ``up_to_seq``
        (default: every segment sealed so far).

        A durable tombstone is written even when a non-durable one
        already covers the range -- power loss would revoke the
        non-durable frame, and deletions must not resurrect.
        """
        if up_to_seq is None:
            up_to_seq = self._next_seq - 1
        if durable:
            if self._dead_durable.get(key, -1) >= up_to_seq:
                return
        elif self._dead_upto.get(key, -1) >= up_to_seq:
            return
        self._dead_upto[key] = max(self._dead_upto.get(key, -1), up_to_seq)
        body = _U32.pack(len(key)) + key + _U64.pack(up_to_seq)
        self._append_frame(MAGIC_TOMBSTONE, body, durable=durable)
        if durable:
            self._dead_durable[key] = up_to_seq
        self.tombstones += 1

    def erase_subject(self, subject: str) -> List[int]:
        """Void every archived entry of ``subject``; returns the
        sequence numbers of the segments whose subject bloom matched
        (the segments the erasure 'reached').

        The marker frame is fsynced, so the erasure survives power loss
        independently of the keystore tombstone -- two layers against
        resurrection-by-restore.
        """
        encoded = subject.encode("utf-8")
        touched = self.segments_of_subject(subject)
        self._erased_subjects.add(subject)
        self._append_frame(MAGIC_SUBJECT,
                           _U32.pack(len(encoded)) + encoded, durable=True)
        self.subject_erasures += 1
        return touched

    def segments_of_subject(self, subject: str) -> List[int]:
        """Which sealed segments may hold ``subject`` -- answered from
        the per-subject blooms without decompressing anything."""
        h1, h2 = BloomFilter.hash_pair(subject.encode("utf-8"))
        return [seq for seq, info in self._segments.items()
                if info.subject_bloom.contains_hashed(h1, h2)]

    def keys_of_subject(self, subject: str) -> List[bytes]:
        """Exact archived keys of ``subject`` (bloom-candidates first,
        then decompress only those segments)."""
        if subject in self._erased_subjects:
            return []
        keys: List[bytes] = []
        seen: Set[bytes] = set()
        for seq in self.segments_of_subject(subject):
            info = self._segments[seq]
            for key, entry in self._cache_entries(info).items():
                if entry.owner != subject or key in seen:
                    continue
                if not self._entry_live(entry):
                    continue
                # Shadowed by a newer copy with a different owner?
                newest = self.lookup(key)
                if newest is not None and newest.seq == seq:
                    keys.append(key)
                    seen.add(key)
        return sorted(keys)

    def clear(self) -> None:
        """Drop the whole archive (FLUSHDB/FLUSHALL reached cold)."""
        self._append_frame(MAGIC_CLEAR, b"", durable=True)
        self._reset_volatile()

    def _reset_volatile(self) -> None:
        self._segments.clear()
        self._dead_upto.clear()
        self._dead_durable.clear()
        self._expiry.clear()
        self._decode_cache.clear()
        # Erased subjects stay erased: the marker semantics mirror the
        # keystore's tombstone-forever rule.

    # -- expiry --------------------------------------------------------------

    def pop_expired(self, now: float) -> List[ColdEntry]:
        """Due, still-live cold entries (heap-ordered); the caller
        tombstones them and emits the deletion events."""
        due: List[ColdEntry] = []
        while self._expiry and self._expiry[0][0] <= now:
            _, seq, key = heapq.heappop(self._expiry)
            info = self._segments.get(seq)
            if info is None:
                continue
            entry = self._cache_entries(info).get(key)
            if entry is None or not self._entry_live(entry):
                continue
            newest = self.lookup(key)
            if newest is None or newest.seq != seq:
                continue  # a newer copy shadows this one
            due.append(entry)
        return due

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the in-RAM index from device bytes, dropping a torn
        tail (a crash mid-seal leaves an incomplete final frame)."""
        data = self.device.read_all()
        pos = 0
        end = len(data)
        while pos < end:
            if end - pos < 8:
                self.torn_frames_dropped += 1
                break
            magic = data[pos:pos + 4]
            (body_len,) = _U32.unpack_from(data, pos + 4)
            frame_end = pos + 8 + body_len + 4
            if magic not in (MAGIC_SEGMENT, MAGIC_TOMBSTONE,
                             MAGIC_SUBJECT, MAGIC_CLEAR):
                self.torn_frames_dropped += 1
                break
            if frame_end > end:
                self.torn_frames_dropped += 1
                break
            body = data[pos + 8:pos + 8 + body_len]
            (crc,) = _U32.unpack_from(data, pos + 8 + body_len)
            if crc32_of(body) != crc:
                self.torn_frames_dropped += 1
                break
            self._apply_frame(magic, body)
            pos = frame_end

    def _apply_frame(self, magic: bytes, body: bytes) -> None:
        if magic == MAGIC_SEGMENT:
            pos = 0
            (hlen,) = _U32.unpack_from(body, pos)
            pos += 4
            header = json.loads(body[pos:pos + hlen].decode("utf-8"))
            pos += hlen
            (klen,) = _U32.unpack_from(body, pos)
            pos += 4
            key_bloom = BloomFilter.from_bytes(body[pos:pos + klen])
            pos += klen
            (slen,) = _U32.unpack_from(body, pos)
            pos += 4
            subject_bloom = BloomFilter.from_bytes(body[pos:pos + slen])
            pos += slen
            compressed = body[pos:]
            info = SegmentInfo(int(header["seq"]), int(header["count"]),
                               float(header["sealed_at"]),
                               int(header["payload_crc"]), compressed,
                               key_bloom, subject_bloom)
            self._register_segment(info)
            self._next_seq = max(self._next_seq, info.seq + 1)
            self.recovered_segments += 1
        elif magic == MAGIC_TOMBSTONE:
            (klen,) = _U32.unpack_from(body, 0)
            key = body[4:4 + klen]
            (up_to,) = _U64.unpack_from(body, 4 + klen)
            if self._dead_upto.get(key, -1) < up_to:
                self._dead_upto[key] = up_to
            # Anything read back from the device is durable by now.
            if self._dead_durable.get(key, -1) < up_to:
                self._dead_durable[key] = up_to
        elif magic == MAGIC_SUBJECT:
            (slen,) = _U32.unpack_from(body, 0)
            self._erased_subjects.add(body[4:4 + slen].decode("utf-8"))
        elif magic == MAGIC_CLEAR:
            self._reset_volatile()

    # -- introspection -------------------------------------------------------

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def erased_subjects(self) -> Set[str]:
        return set(self._erased_subjects)

    def resident_bytes(self) -> int:
        """RAM the archive index keeps resident: compressed segments,
        blooms, tombstone maps, and the expiry heap."""
        total = 0
        for info in self._segments.values():
            total += len(info.compressed)
            total += info.key_bloom.byte_size()
            total += info.subject_bloom.byte_size()
        total += sum(len(k) + 8 for k in self._dead_upto)
        total += sum(len(k) + 16 for _, _, k in self._expiry)
        return total

    def stats(self) -> Dict[str, int]:
        return {
            "segments": self.segment_count,
            "seals": self.seals,
            "sealed_entries": self.sealed_entries,
            "tombstones": self.tombstones,
            "subject_erasures": self.subject_erasures,
            "bloom_false_positives": self.bloom_false_positives,
            "decompressions": self.decompressions,
            "recovered_segments": self.recovered_segments,
            "torn_frames_dropped": self.torn_frames_dropped,
        }
