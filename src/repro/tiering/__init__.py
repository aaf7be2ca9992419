"""Tiered hot/cold storage over the :class:`StorageEngine` seam.

The paper's erasure story is only as strong as its reach: Art. 17 must
void *every* copy, including sealed archives that are expensive to
rewrite.  This package adds the archive tier:

* :class:`~repro.tiering.bloom.BloomFilter` -- deterministic double-
  hashed bloom filters sized for a configured false-positive bound;
* :class:`~repro.tiering.segment.ColdSegmentStore` -- batch-sealed,
  checksummed, indexed segments on the device layer, read one record at
  a time through a resident key directory that holds no payload; each
  carries a per-subject membership bloom so rights fan-out can answer
  "which cold segments hold this subject" without reading any; member
  values are encrypted under per-subject keys from the shared
  :class:`~repro.crypto.keystore.KeyStore`, so one crypto-erasure voids
  the archive without rewriting segments;
* :class:`~repro.tiering.engine.TieredEngine` -- a
  :class:`~repro.engine.base.StorageEngine` wrapper presenting ONE
  keyspace: idle records demote out of the hot engine into cold
  segments, reads promote transparently, and every keyspace view
  (KEYS, SCAN, DBSIZE, ``scan_records``) merges both tiers.
"""

from .bloom import BloomFilter
from .segment import (ColdEntry, ColdInput, ColdSegmentStore, SegmentInfo,
                      UnsupportedSegmentFormat)
from .engine import TieredEngine, TieringConfig

__all__ = [
    "BloomFilter",
    "ColdEntry",
    "ColdInput",
    "ColdSegmentStore",
    "SegmentInfo",
    "TieredEngine",
    "TieringConfig",
    "UnsupportedSegmentFormat",
]
