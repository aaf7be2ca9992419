"""Deterministic bloom filters for cold-segment membership.

Each sealed segment carries one over its member *subjects*, so Art.
15/17 fan-out can answer "which cold segments hold this subject" from
RAM and read only those segments' index blocks.  (Member *keys* need
none: the archive's resident directory answers for them exactly.)
Hashing is double hashing derived from SHA-256 -- fully deterministic
across runs and platforms, which the byte-identical bench re-runs in CI
rely on.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Tuple

from ..common.hashing import sha256_bytes

_HEADER = struct.Struct(">III")  # bit count, hash count, added count


class BloomFilter:
    """A fixed-size bloom filter with ``k`` double-hashed probes.

    Sized via :meth:`for_capacity` the filter targets *half* the
    configured false-positive rate, leaving headroom so the measured
    rate stays under the configured bound even at full capacity (the
    property suite checks exactly this).
    """

    __slots__ = ("bit_count", "hash_count", "added", "_bits")

    def __init__(self, bit_count: int, hash_count: int) -> None:
        if bit_count <= 0:
            raise ValueError("bit_count must be positive")
        if hash_count <= 0:
            raise ValueError("hash_count must be positive")
        self.bit_count = bit_count
        self.hash_count = hash_count
        self.added = 0
        self._bits = bytearray((bit_count + 7) // 8)

    @classmethod
    def for_capacity(cls, capacity: int, fp_rate: float) -> "BloomFilter":
        """Size a filter for ``capacity`` items at <= ``fp_rate`` FPs."""
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        capacity = max(1, capacity)
        target = fp_rate / 2.0  # headroom: measured rate < configured bound
        ln2 = math.log(2.0)
        bit_count = max(8, math.ceil(-capacity * math.log(target) / (ln2 * ln2)))
        hash_count = max(1, round((bit_count / capacity) * ln2))
        return cls(bit_count, hash_count)

    @staticmethod
    def hash_pair(item: bytes) -> Tuple[int, int]:
        """The double-hash pair ``(h1, h2)`` of ``item``: one SHA-256,
        shared by filters of every size, so a query over many segments
        hashes once and hands the pair to :meth:`contains_hashed`.

        Invariant: same bit positions as :meth:`add` --
        ``(h1 + i * h2) % bit_count`` for ``i < hash_count``, ``h2``
        forced odd so the probes cycle the whole array."""
        digest = sha256_bytes(item)
        return (int.from_bytes(digest[:8], "big"),
                int.from_bytes(digest[8:16], "big") | 1)

    def add(self, item: bytes) -> None:
        h1, h2 = self.hash_pair(item)
        bits, bit_count = self._bits, self.bit_count
        for _ in range(self.hash_count):
            idx = h1 % bit_count
            bits[idx >> 3] |= 1 << (idx & 7)
            h1 += h2
        self.added += 1

    def update(self, items: Iterable[bytes]) -> None:
        for item in items:
            self.add(item)

    def contains_hashed(self, h1: int, h2: int) -> bool:
        """Membership of the item whose :meth:`hash_pair` is
        ``(h1, h2)``, returning on the first clear bit.

        Invariant: same bit positions as :meth:`add`, so
        ``bloom.contains_hashed(*BloomFilter.hash_pair(x))`` is
        ``x in bloom`` for every filter size."""
        bits, bit_count = self._bits, self.bit_count
        for _ in range(self.hash_count):
            idx = h1 % bit_count
            if not bits[idx >> 3] & (1 << (idx & 7)):
                return False
            h1 += h2
        return True

    def __contains__(self, item: bytes) -> bool:
        return self.contains_hashed(*self.hash_pair(item))

    def byte_size(self) -> int:
        """``len(self.to_bytes())`` without serializing."""
        return _HEADER.size + len(self._bits)

    def to_bytes(self) -> bytes:
        return _HEADER.pack(self.bit_count, self.hash_count, self.added) + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        if len(data) < _HEADER.size:
            raise ValueError("truncated bloom filter")
        bit_count, hash_count, added = _HEADER.unpack_from(data, 0)
        bloom = cls(bit_count, hash_count)
        bits = data[_HEADER.size:]
        if len(bits) != len(bloom._bits):
            raise ValueError("bloom filter bit array length mismatch")
        bloom._bits[:] = bits
        bloom.added = added
        return bloom
