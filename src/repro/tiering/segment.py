"""Cold segment store: batch-sealed, checksummed archives read one entry
at a time.

A :class:`ColdSegmentStore` is the archive half of the tiered keyspace.
It lives on one :class:`~repro.device.append_log.AppendLog` device and
speaks a framed, self-describing format so a store can be rebuilt from
device bytes alone after a crash:

``frame := magic(4) | u32 body_len | body | u32 crc32(body)``

Four frame kinds:

* ``CSG2`` -- a sealed segment::

      header   seq u64 | sealed_at f64 | bloom_len u32 | index_len u32
               | index_crc u32
      bloom    the serialized member-subject bloom filter
      index    per entry: meta | u32 offset | u32 length
      records  per entry: meta | stored value | u32 crc32(meta | stored)

  ``meta`` is ``u32 klen | key | flags u8 | [f64 deadline] | [u32 olen |
  owner]``; ``offset`` counts from the first record.  A record is
  self-describing and self-checking, so a point read fetches exactly
  one of them; the index block repeats the metadata so enumeration by
  subject never touches a value.  Nothing is compressed: values of
  entries with a known data subject are sealed under that subject's key
  from the shared :class:`~repro.crypto.keystore.KeyStore` -- ciphertext
  does not deflate -- so crypto-erasure voids them in place, no segment
  rewrite.
* ``CTB1`` -- a key tombstone, versioned by segment sequence: it kills
  copies of the key in segments up to ``up_to_seq`` but not copies
  sealed later (a key may be demoted again after a promote).
* ``CSB1`` -- a subject-erasure marker: every entry owned by the subject
  is dead in every segment sealed before it; a subject who returns after
  the erasure is archived, and read back, afresh.  The marker is never
  retired.
* ``CCL1`` -- a clear marker (FLUSHDB/FLUSHALL reached the archive).

Durability discipline: a seal and a clear marker are barriers as
written (:meth:`~repro.device.append_log.LogWriter.sync`): their
``flush(); fsync()`` runs *before* the caller removes hot copies, even
inside a barrier scope, which defers only commits.  A tombstone and a
subject marker ask the device to
:meth:`~repro.device.append_log.AppendLog.commit` them, so the ones laid
during one tiered command -- which runs in one ``device.group()`` scope
-- share the one fsync at the scope's exit (group commit), or an earlier
seal's.  Either way a crash at any point leaves the record in at least
one tier and never resurrects a deleted one.  A torn final frame (crash
mid-seal) fails its length or CRC check and is dropped whole at
recovery.

A copy whose key the hot tier holds too is that key's *shadow*
(:meth:`ColdSegmentStore.shadow`): recovery treats the hot copy as
authoritative, so a shadow costs no device write while it lives, and no
cold-only view (:meth:`~ColdSegmentStore.slot_of`, ``live_keys``,
``keys_of_subject``, expiry) answers it.  It dies, as any copy does, by
a tombstone or a newer seal of its key.
"""

from __future__ import annotations

import heapq
import struct
from typing import (Container, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

from ..common.errors import CorruptionError
from ..common.hashing import crc32_of
from ..device.append_log import AppendLog, FsyncPolicy, LogWriter
from .bloom import BloomFilter

MAGIC_SEGMENT = b"CSG2"
MAGIC_TOMBSTONE = b"CTB1"
MAGIC_SUBJECT = b"CSB1"
MAGIC_CLEAR = b"CCL1"
_MAGIC_SEGMENT_V1 = b"CSG1"    # zlib-compressed payload; no reader is kept

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
_SEGMENT_HEADER = struct.Struct(">QdIII")
_INDEX_TAIL = struct.Struct(">II")       # offset, length of one record

_FLAG_ENCRYPTED = 1
_FLAG_EXPIRE = 2
_FLAG_OWNER = 4

#: Packed size of what RAM keeps per directory slot besides the key
#: (seq u32 with the shadow bit, device offset u64, length u32, deadline
#: f64) and per sealed segment besides its bloom (seq, sealed_at, index
#: offset / length / CRC) -- what :meth:`ColdSegmentStore.resident_bytes`
#: charges.
_SLOT_BYTES = 24
_SEGMENT_INFO_BYTES = 32

#: AAD prefix binding a cold ciphertext to its key, so a sealed value
#: cannot be replayed under a different key name.
_COLD_AAD_PREFIX = b"cold:"


class UnsupportedSegmentFormat(CorruptionError):
    """The device holds a segment frame of a format this build cannot
    read (``CSG1``); recovery refuses it rather than truncate the
    archive at that frame."""


class ColdInput(NamedTuple):
    """One record handed to :meth:`ColdSegmentStore.seal`."""

    key: bytes
    value: bytes
    expire_at: Optional[float]
    owner: Optional[str]


class ColdEntry(NamedTuple):
    """One archived record, as read back from its segment."""

    seq: int
    key: bytes
    stored: bytes            # ciphertext when encrypted, else plaintext
    encrypted: bool
    expire_at: Optional[float]
    owner: Optional[str]


class Slot(NamedTuple):
    """The resident directory's answer for one key: where the newest
    live copy sits on the device, when it expires, and whether it is the
    shadow of a hot copy."""

    seq: int
    offset: int              # absolute device offset of the record
    length: int
    expire_at: Optional[float]
    shadow: bool = False


class SegmentInfo(NamedTuple):
    """What RAM keeps per sealed segment: where its index block is, and
    the subject bloom that says whether reading it is worthwhile."""

    seq: int
    sealed_at: float
    index_offset: int        # absolute device offset of the index block
    index_length: int
    index_crc: int
    subject_bloom: BloomFilter


class IndexEntry(NamedTuple):
    """One line of a segment's index block."""

    key: bytes
    expire_at: Optional[float]
    owner: Optional[str]
    offset: int              # of the record, from the first record
    length: int


def _pack_meta(key: bytes, flags: int, expire_at: Optional[float],
               owner: Optional[str]) -> bytes:
    parts = [_U32.pack(len(key)), key, bytes([flags])]
    if expire_at is not None:
        parts.append(_F64.pack(expire_at))
    if owner is not None:
        encoded = owner.encode("utf-8")
        parts.append(_U32.pack(len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def _unpack_meta(data: bytes, pos: int
                 ) -> Tuple[bytes, int, Optional[float], Optional[str], int]:
    """``(key, flags, expire_at, owner, end)`` of the meta at ``pos``."""
    (klen,) = _U32.unpack_from(data, pos)
    pos += 4
    key = data[pos:pos + klen]
    pos += klen
    flags = data[pos]
    pos += 1
    expire_at = None
    if flags & _FLAG_EXPIRE:
        (expire_at,) = _F64.unpack_from(data, pos)
        pos += 8
    owner = None
    if flags & _FLAG_OWNER:
        (olen,) = _U32.unpack_from(data, pos)
        pos += 4
        owner = data[pos:pos + olen].decode("utf-8")
        pos += olen
    return key, flags, expire_at, owner, pos


def _unpack_index(block: bytes) -> Iterator[IndexEntry]:
    pos = 0
    while pos < len(block):
        key, _, expire_at, owner, pos = _unpack_meta(block, pos)
        offset, length = _INDEX_TAIL.unpack_from(block, pos)
        pos += _INDEX_TAIL.size
        yield IndexEntry(key, expire_at, owner, offset, length)


class ColdSegmentStore:
    """The archive tier on one append-only device.

    RAM holds an index and no payload: a directory mapping each key with
    a live copy to the :class:`Slot` of its newest copy, per segment the
    subject bloom and the whereabouts of its index block, the expiry
    heap, and per erased subject the first segment its marker spares.
    Membership, KEYS-style enumeration and expiry are answered from the
    directory alone; a point :meth:`lookup` reads one record from the
    device; only per-subject enumeration reads index blocks, and only of
    segments whose subject bloom is positive (a positive that holds
    nothing of the subject is counted in :attr:`bloom_false_positives`).
    """

    def __init__(self, device: Optional[AppendLog] = None,
                 keystore: Optional[object] = None,
                 fp_rate: float = 0.01) -> None:
        self.device = device if device is not None else AppendLog(name="cold.seg")
        self.keystore = keystore
        self.fp_rate = fp_rate
        self._segments: Dict[int, SegmentInfo] = {}
        self._next_seq = 0
        # key -> slot of its newest copy; a tombstone or a subject
        # erasure removes the slot and a newer seal replaces it, so
        # presence here *is* liveness.
        self._directory: Dict[bytes, Slot] = {}
        self._shadows = 0              # slots flagged ``shadow``
        # Seals and clear markers: fsynced as written, in a scope or not.
        self._always = LogWriter(self.device, self.device.clock,
                                 FsyncPolicy.ALWAYS)
        # subject -> the segment sequence number current at its
        # erasure marker: the subject's entries sealed before it are
        # dead, those sealed after it are live.
        self._erased_subjects: Dict[str, int] = {}
        # (expire_at, seq, key) heap-ordered list for active cold expiry.
        self._expiry: List[Tuple[float, int, bytes]] = []
        # Counters (cold_stats surface).
        self.seals = 0
        self.sealed_entries = 0
        self.tombstones = 0
        self.subject_erasures = 0
        self.bloom_false_positives = 0
        self.entry_reads = 0
        self.recovered_segments = 0
        self.torn_frames_dropped = 0
        #: Record bytes of the copies no longer live (tombstoned,
        #: expired, erased, cleared or superseded by a newer seal): what
        #: a compaction of the device would reclaim.
        self.dead_bytes = 0
        if self.device.total_length:
            self._recover()

    # -- small helpers -------------------------------------------------------

    def attach_keystore(self, keystore: object) -> None:
        self.keystore = keystore

    def _append_frame(self, magic: bytes, body: bytes) -> None:
        self.device.append(magic + _U32.pack(len(body)) + body
                           + _U32.pack(crc32_of(body)))

    def _drop(self, key: bytes) -> Optional[Slot]:
        """Remove ``key``'s slot, if any: its copy is dead bytes now."""
        slot = self._directory.pop(key, None)
        if slot is not None:
            self.dead_bytes += slot.length
            self._shadows -= slot.shadow
        return slot

    def _register(self, info: SegmentInfo, entries: Iterable[IndexEntry],
                  records_offset: int) -> None:
        """Enter a sealed (or recovered) segment into the resident
        index: each entry becomes its key's newest copy, and the copy it
        supersedes is dead."""
        self._segments[info.seq] = info
        for entry in entries:
            self._drop(entry.key)
            if self._erased_before(entry.owner, info.seq):
                self.dead_bytes += entry.length     # dead on arrival
                continue
            self._directory[entry.key] = Slot(
                info.seq, records_offset + entry.offset, entry.length,
                entry.expire_at)
            if entry.expire_at is not None:
                heapq.heappush(self._expiry,
                               (entry.expire_at, info.seq, entry.key))
        self._next_seq = max(self._next_seq, info.seq + 1)

    def _read_index(self, info: SegmentInfo) -> Iterator[IndexEntry]:
        block = self.device.read_at(info.index_offset, info.index_length)
        if crc32_of(block) != info.index_crc:
            raise CorruptionError(
                f"cold segment {info.seq} index checksum mismatch")
        return _unpack_index(block)

    def _erased_before(self, owner: Optional[str], seq: int) -> bool:
        """Whether an erasure marker of ``owner`` kills its entries in
        segment ``seq``: the segment was sealed before the marker."""
        return seq < self._erased_subjects.get(owner, 0)

    def _entry_live(self, entry: ColdEntry) -> bool:
        slot = self._directory.get(entry.key)
        return (slot is not None and slot.seq == entry.seq
                and not self._erased_before(entry.owner, entry.seq))

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
        subject_bloom = BloomFilter.for_capacity(len(inputs), self.fp_rate)
        index: List[bytes] = []
        records: List[bytes] = []
        entries: List[IndexEntry] = []
        offset = 0
        for item in inputs:
            stored = item.value
            flags = 0
            if item.expire_at is not None:
                flags |= _FLAG_EXPIRE
            if item.owner is not None:
                flags |= _FLAG_OWNER
                subject_bloom.add(item.owner.encode("utf-8"))
                if self.keystore is not None:
                    cipher = self.keystore.cipher_for(item.owner)
                    stored = cipher.seal(item.value,
                                         aad=_COLD_AAD_PREFIX + item.key)
                    flags |= _FLAG_ENCRYPTED
            meta = _pack_meta(item.key, flags, item.expire_at, item.owner)
            checked = meta + stored
            record = checked + _U32.pack(crc32_of(checked))
            index.append(meta + _INDEX_TAIL.pack(offset, len(record)))
            records.append(record)
            entries.append(IndexEntry(item.key, item.expire_at, item.owner,
                                      offset, len(record)))
            offset += len(record)
        index_block = b"".join(index)
        index_crc = crc32_of(index_block)
        bloom = subject_bloom.to_bytes()
        header = _SEGMENT_HEADER.pack(seq, sealed_at, len(bloom),
                                      len(index_block), index_crc)
        index_offset = (self.device.total_length + 8 + len(header)
                        + len(bloom))
        self._append_frame(MAGIC_SEGMENT,
                           b"".join([header, bloom, index_block] + records))
        self._always.sync()
        self._register(
            SegmentInfo(seq, sealed_at, index_offset, len(index_block),
                        index_crc, subject_bloom),
            entries, index_offset + len(index_block))
        self.seals += 1
        self.sealed_entries += len(inputs)
        return seq

    # -- membership & lookup -------------------------------------------------

    def slot_of(self, key: bytes) -> Optional[Slot]:
        """Where the newest live copy of cold-only ``key`` is, or None
        (no live copy, or a shadow) -- exact, answered from RAM, nothing
        read."""
        slot = self._directory.get(key)
        if slot is None or slot.shadow:
            return None
        return slot

    def lookup(self, key: bytes) -> Optional[ColdEntry]:
        """Newest live copy of cold-only ``key``, or None.

        A miss costs nothing on the device; a hit reads that one record
        and verifies its checksum.
        """
        slot = self._directory.get(key)
        if slot is None or slot.shadow:
            return None
        record = self.device.read_at(slot.offset, slot.length)
        self.entry_reads += 1
        checked = record[:-4]
        if crc32_of(checked) != _U32.unpack_from(record, len(checked))[0]:
            raise CorruptionError(
                f"cold segment {slot.seq}: entry {key!r} checksum mismatch")
        _, flags, expire_at, owner, pos = _unpack_meta(checked, 0)
        if self._erased_before(owner, slot.seq):
            return None
        return ColdEntry(slot.seq, key, checked[pos:],
                         bool(flags & _FLAG_ENCRYPTED), expire_at, owner)

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

    def live_keys(self, now: Optional[float] = None) -> List[bytes]:
        """The exact cold-only keyspace, from the directory; with
        ``now``, without the copies already past their deadline."""
        return [key for key, slot in self._directory.items()
                if not slot.shadow and (now is None or slot.expire_at is None
                                        or slot.expire_at > now)]

    def live_count(self) -> int:
        """Cold-only keys, expired-but-unreclaimed ones included."""
        return len(self._directory) - self._shadows

    # -- shadows -------------------------------------------------------------

    def shadow(self, key: bytes, held: bool = True) -> bool:
        """The hot tier holds ``key`` now: its live copy here, if any,
        becomes the key's shadow -- kept for recovery, hidden from every
        cold-only view.  With ``held`` False the hot tier gave the key
        up while its shadow is current (a clean re-demotion): the shadow
        is the key's cold copy again.  Nothing is written either way;
        returns whether ``key`` has a live copy."""
        slot = self._directory.get(key)
        if slot is None:
            return False
        if slot.shadow != held:
            self._directory[key] = slot._replace(shadow=held)
            self._shadows += 1 if held else -1
        return True

    def settle_shadows(self, hot: Container[bytes]) -> None:
        """After a restart or a log replay: a live copy is a shadow
        exactly when ``hot`` holds its key."""
        for key in list(self._directory):
            self.shadow(key, key in hot)

    # -- deletion-like mutations ---------------------------------------------

    def tombstone_key(self, key: bytes) -> None:
        """Kill every copy of ``key`` sealed so far, its shadow included.

        A no-op when there is no live copy to kill.  The tombstone is
        committed: inside a barrier scope it waits for the scope's one
        fsync.
        """
        if self._drop(key) is None:
            return
        self._append_frame(MAGIC_TOMBSTONE, _U32.pack(len(key)) + key
                           + _U64.pack(self._next_seq - 1))
        self.device.commit()
        self.tombstones += 1

    def erase_subject(self, subject: str) -> List[int]:
        """Void every archived entry of ``subject``; returns the
        sequence numbers of the segments whose subject bloom matched
        (the segments the erasure 'reached').

        The marker frame is committed (inside a barrier scope, fsynced
        at the scope's exit), so the erasure survives power loss
        independently of the keystore tombstone -- two layers against
        resurrection-by-restore.  A subject no segment's bloom matches
        has nothing archived: it gets no marker, and owes no barrier.
        """
        touched = self.segments_of_subject(subject)
        if not touched:
            return touched
        encoded = subject.encode("utf-8")
        self._void_subject(subject, touched)
        self._append_frame(MAGIC_SUBJECT, _U32.pack(len(encoded)) + encoded)
        self.device.commit()
        self.subject_erasures += 1
        return touched

    def _void_subject(self, subject: str, touched: List[int]) -> None:
        for key in self._keys_of_subject(subject, touched):
            self._drop(key)
        self._erased_subjects[subject] = self._next_seq

    def segments_of_subject(self, subject: str) -> List[int]:
        """Which sealed segments may hold ``subject`` -- answered from
        the per-subject blooms without reading anything."""
        h1, h2 = BloomFilter.hash_pair(subject.encode("utf-8"))
        return [seq for seq, info in self._segments.items()
                if info.subject_bloom.contains_hashed(h1, h2)]

    def _keys_of_subject(self, subject: str,
                         candidates: List[int]) -> Iterator[bytes]:
        """Live keys whose newest copy ``subject`` owns, from the index
        blocks of the ``candidates`` segments."""
        for seq in candidates:
            positive = False
            for entry in self._read_index(self._segments[seq]):
                if entry.owner != subject:
                    continue
                positive = True
                slot = self._directory.get(entry.key)
                if slot is not None and slot.seq == seq:
                    yield entry.key
            if not positive:
                self.bloom_false_positives += 1

    def keys_of_subject(self, subject: str) -> List[bytes]:
        """Exact cold-only keys of ``subject`` (bloom candidates sealed
        after any erasure marker of the subject first, then the index
        blocks of only those segments)."""
        spared = self._erased_subjects.get(subject, 0)
        return sorted(key for key in self._keys_of_subject(
            subject, [seq for seq in self.segments_of_subject(subject)
                      if seq >= spared])
            if not self._directory[key].shadow)

    def clear(self) -> None:
        """Drop the whole archive (FLUSHDB/FLUSHALL reached cold)."""
        self._append_frame(MAGIC_CLEAR, b"")
        self._always.sync()
        self._reset_volatile()

    def _reset_volatile(self) -> None:
        self._segments.clear()
        self.dead_bytes += sum([slot.length
                                for slot in self._directory.values()])
        self._directory.clear()
        self._shadows = 0
        self._expiry.clear()
        # The subject markers stay, and keep their meaning: sequence
        # numbers do not restart.

    # -- expiry --------------------------------------------------------------

    def pop_expired(self, now: float) -> List[bytes]:
        """Cold-only keys whose live copy is due (heap-ordered); the
        caller tombstones them and emits the deletion events.  A due
        shadow is not among them: its key's deadline is the hot copy's."""
        due: List[bytes] = []
        while self._expiry and self._expiry[0][0] <= now:
            _, seq, key = heapq.heappop(self._expiry)
            slot = self._directory.get(key)
            if slot is not None and slot.seq == seq and not slot.shadow:
                due.append(key)
        return due

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the resident index from device bytes, cutting a torn
        tail (a crash mid-seal leaves an incomplete final frame) from
        the device at the first bad frame, so the next seal follows the
        last good one."""
        data = self.device.read_all()
        pos = 0
        end = len(data)
        while pos < end:
            magic = data[pos:pos + 4]
            if magic == _MAGIC_SEGMENT_V1:
                raise UnsupportedSegmentFormat(
                    f"{self.device.name}: CSG1 segment frame at byte {pos}; "
                    "this build reads CSG2 only")
            if end - pos < 8 or magic not in (MAGIC_SEGMENT, MAGIC_TOMBSTONE,
                                              MAGIC_SUBJECT, MAGIC_CLEAR):
                self.torn_frames_dropped += 1
                break
            (body_len,) = _U32.unpack_from(data, pos + 4)
            body_end = pos + 8 + body_len
            if body_end + 4 > end:
                self.torn_frames_dropped += 1
                break
            body = data[pos + 8:body_end]
            if crc32_of(body) != _U32.unpack_from(data, body_end)[0]:
                self.torn_frames_dropped += 1
                break
            self._apply_frame(magic, body, pos + 8)
            pos = body_end + 4
        if pos < end:
            self.device.truncate(pos)

    def _apply_frame(self, magic: bytes, body: bytes,
                     body_offset: int) -> None:
        if magic == MAGIC_SEGMENT:
            seq, sealed_at, bloom_len, index_len, index_crc = \
                _SEGMENT_HEADER.unpack_from(body, 0)
            bloom_end = _SEGMENT_HEADER.size + bloom_len
            index_end = bloom_end + index_len
            info = SegmentInfo(
                seq, sealed_at, body_offset + bloom_end, index_len,
                index_crc,
                BloomFilter.from_bytes(body[_SEGMENT_HEADER.size:bloom_end]))
            # The records behind the index stay on the device.
            self._register(info, _unpack_index(body[bloom_end:index_end]),
                           body_offset + index_end)
            self.recovered_segments += 1
        elif magic == MAGIC_TOMBSTONE:
            (klen,) = _U32.unpack_from(body, 0)
            key = body[4:4 + klen]
            (up_to,) = _U64.unpack_from(body, 4 + klen)
            slot = self._directory.get(key)
            if slot is not None and slot.seq <= up_to:
                self._drop(key)
        elif magic == MAGIC_SUBJECT:
            (slen,) = _U32.unpack_from(body, 0)
            subject = body[4:4 + slen].decode("utf-8")
            self._void_subject(subject, self.segments_of_subject(subject))
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
        """RAM the archive keeps resident, every structure at its packed
        size and nothing that lives on the device only: per segment the
        fixed fields and the subject bloom, the directory (shadows
        included), the erased-subject names with their markers' u32
        sequence numbers, and the expiry heap."""
        total = sum(_SEGMENT_INFO_BYTES + info.subject_bloom.byte_size()
                    for info in self._segments.values())
        total += sum(len(key) + _SLOT_BYTES for key in self._directory)
        total += sum(len(name.encode("utf-8")) + 4
                     for name in self._erased_subjects)
        total += sum(len(key) + 16 for _, _, key in self._expiry)
        return total

    def stats(self) -> Dict[str, int]:
        return {
            "segments": self.segment_count,
            "seals": self.seals,
            "sealed_entries": self.sealed_entries,
            "tombstones": self.tombstones,
            "subject_erasures": self.subject_erasures,
            "bloom_false_positives": self.bloom_false_positives,
            "entry_reads": self.entry_reads,
            "recovered_segments": self.recovered_segments,
            "torn_frames_dropped": self.torn_frames_dropped,
            "shadows": self._shadows,
            "dead_bytes": self.dead_bytes,
        }
