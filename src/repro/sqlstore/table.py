"""The relational engine's storage structures: ordered heap + indexes.

PostgreSQL stores a table as a heap with a B-tree primary-key index and
optional secondary indexes.  This module models the *access-path shape*
of that design (what gets traversed, in what order, how deep) while the
engine charges the costs:

* :class:`Table` keeps rows reachable two ways: a dict for O(1) point
  access and a **sorted key list** standing in for the primary-key
  B-tree, so range scans (`WHERE key >= x ORDER BY key LIMIT n`) walk
  keys in order without any shadow index -- the structural advantage a
  relational engine has over a hash-table store for YCSB workload E.
* Secondary indexes: an ``expire_at`` index (deadline-ordered heap, the
  retention sweep's access path) and an ``owner`` index over the GDPR
  metadata columns (the paper's schema change: metadata lives in the
  row, indexed, rather than in a sidecar).

:func:`btree_depth` is the cost model's handle on index height: the
number of node visits a point lookup pays, growing with ``log_fanout``
of the table size.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

# A row's payload: a single value column (bytes, from SET) or a wide row
# of named columns (dict, from HSET) -- the two shapes YCSB drives.
RowValue = Union[bytes, Dict[bytes, bytes]]


def btree_depth(row_count: int, fanout: int) -> int:
    """Node visits for one index descent: root -> leaf.

    Depth 1 for an empty/tiny table, growing logarithmically -- the
    shape that makes relational point lookups slow down (slightly) as
    tables grow where a hash table would not.
    """
    if row_count < 2:
        return 1
    return 1 + math.ceil(math.log(row_count, max(2, fanout)))


class Row:
    """One heap tuple: payload plus the GDPR metadata columns."""

    __slots__ = ("key", "value", "expire_at", "owner", "purposes")

    def __init__(self, key: bytes, value: RowValue,
                 expire_at: Optional[float] = None,
                 owner: Optional[str] = None,
                 purposes: str = "") -> None:
        self.key = key
        self.value = value
        self.expire_at = expire_at
        self.owner = owner
        self.purposes = purposes

    def payload_bytes(self) -> int:
        if isinstance(self.value, bytes):
            return len(self.value)
        return sum(len(name) + len(col) for name, col in self.value.items())


class Table:
    """The ``records`` table: ordered heap, expiry index, owner index."""

    def __init__(self) -> None:
        self._rows: Dict[bytes, Row] = {}
        self._keys: List[bytes] = []          # sorted: the PK B-tree
        self._by_owner: Dict[str, Set[bytes]] = {}
        self._expiry_heap: List[Tuple[float, bytes]] = []

    # -- heap maintenance --------------------------------------------------

    def get(self, key: bytes) -> Optional[Row]:
        return self._rows.get(key)

    def upsert(self, key: bytes, value: RowValue) -> Row:
        """Insert or replace the payload columns of ``key``'s row.

        A replacement clears the expiry (SET semantics: overwrite drops
        the TTL) but keeps the metadata columns untouched only when the
        row survives -- a fresh insert starts with NULL metadata.
        """
        row = self._rows.get(key)
        if row is None:
            row = Row(key, value)
            self._rows[key] = row
            bisect.insort(self._keys, key)
        else:
            row.value = value
            row.expire_at = None
        return row

    def delete(self, key: bytes) -> Optional[Row]:
        row = self._rows.pop(key, None)
        if row is None:
            return None
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            del self._keys[index]
        if row.owner is not None:
            self._index_owner(row.owner, key, remove=True)
        # Expiry heap entries are lazily invalidated on pop.
        return row

    def clear(self) -> int:
        count = len(self._rows)
        self._rows.clear()
        self._keys.clear()
        self._by_owner.clear()
        self._expiry_heap.clear()
        return count

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: bytes) -> bool:
        return key in self._rows

    def keys(self) -> List[bytes]:
        """All keys in primary-key order (the B-tree's leaf walk)."""
        return list(self._keys)

    # -- expiry column / index ---------------------------------------------

    def set_expiry(self, key: bytes, expire_at: float) -> None:
        row = self._rows.get(key)
        if row is None:
            raise KeyError(key)
        row.expire_at = expire_at
        heapq.heappush(self._expiry_heap, (expire_at, key))
        if len(self._expiry_heap) > 2 * len(self._rows) + 64:
            # Superseded deadlines outnumber the rows: rebuild the index
            # from the rows' own, so it stays bounded by the table.
            self._expiry_heap = [(row.expire_at, row.key)
                                 for row in self._rows.values()
                                 if row.expire_at is not None]
            heapq.heapify(self._expiry_heap)

    def clear_expiry(self, key: bytes) -> bool:
        row = self._rows.get(key)
        if row is None or row.expire_at is None:
            return False
        row.expire_at = None
        return True

    def due_rows(self, now: float) -> List[bytes]:
        """Keys whose ``expire_at`` column has passed, in deadline
        order -- one index range scan of the retention sweep."""
        due: List[bytes] = []
        while self._expiry_heap and self._expiry_heap[0][0] <= now:
            deadline, key = heapq.heappop(self._expiry_heap)
            row = self._rows.get(key)
            if row is not None and row.expire_at == deadline:
                due.append(key)
        return due

    # -- owner (GDPR metadata) index ---------------------------------------

    def set_metadata(self, key: bytes, owner: str, purposes: str) -> bool:
        row = self._rows.get(key)
        if row is None:
            return False
        if row.owner is not None and row.owner != owner:
            self._index_owner(row.owner, key, remove=True)
        if row.owner != owner:
            self._index_owner(owner, key, remove=False)
        row.owner = owner
        row.purposes = purposes
        return True

    def _index_owner(self, owner: str, key: bytes, remove: bool) -> None:
        if remove:
            bucket = self._by_owner.get(owner)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_owner[owner]
        else:
            self._by_owner.setdefault(owner, set()).add(key)

    def keys_of_owner(self, owner: str) -> List[bytes]:
        return sorted(self._by_owner.get(owner, ()))

    # -- range access (the ordered heap's reason to exist) -----------------

    def iter_from(self, start_key: bytes) -> Iterator[bytes]:
        """Keys ``>= start_key`` in primary-key order (the B-tree leaf
        walk a LIMIT query resumes through filtered-out tuples)."""
        for index in range(bisect.bisect_left(self._keys, start_key),
                           len(self._keys)):
            yield self._keys[index]

    def rows(self) -> Iterator[Row]:
        """All rows in primary-key order (a C-level iterator: a scan
        costs no Python call per row)."""
        return map(self._rows.__getitem__, self._keys)
