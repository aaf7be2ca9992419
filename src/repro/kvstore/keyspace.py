"""The keyspace: one database's key dictionary plus its expires dictionary.

Redis keeps two dicts per database: ``dict`` (key -> value) and ``expires``
(key -> expire-at milliseconds).  The probabilistic active-expiry algorithm
needs *uniform random sampling* from the expires dict, which a plain Python
dict cannot do in O(1); :class:`RandomAccessSet` provides it the same way
Redis' dictGetRandomKey does over its hash table.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from .datatypes import RedisValue


class RandomAccessSet:
    """A set of keys supporting O(1) add/remove/uniform-random-choice."""

    def __init__(self) -> None:
        self._items: List[bytes] = []
        self._index: Dict[bytes, int] = {}

    def add(self, key: bytes) -> None:
        if key in self._index:
            return
        self._index[key] = len(self._items)
        self._items.append(key)

    def discard(self, key: bytes) -> None:
        pos = self._index.pop(key, None)
        if pos is None:
            return
        last = self._items.pop()
        if pos < len(self._items):
            self._items[pos] = last
            self._index[last] = pos

    def random_key(self, rng: random.Random) -> Optional[bytes]:
        if not self._items:
            return None
        return self._items[rng.randrange(len(self._items))]

    def __contains__(self, key: bytes) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._items)


class Database:
    """One numbered database: values, expiry times, and sampling support.

    Expiry times are absolute seconds on the store's clock.  The database
    itself never *checks* expiry -- callers (lazy expiration on access, the
    active expiry cycles) own that policy, mirroring the split between
    Redis' db.c and expire.c.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.data: Dict[bytes, RedisValue] = {}
        self.expires: Dict[bytes, float] = {}
        self.expires_sample: RandomAccessSet = RandomAccessSet()
        self.all_keys_sample: RandomAccessSet = RandomAccessSet()
        # Monotone counters for INFO / stats.
        self.expired_count = 0
        self.hits = 0
        self.misses = 0

    # -- raw accessors (no expiry policy) ------------------------------------

    def set_value(self, key: bytes, value: RedisValue) -> None:
        if key not in self.data:
            self.all_keys_sample.add(key)
        self.data[key] = value

    def get_value(self, key: bytes) -> Optional[RedisValue]:
        return self.data.get(key)

    def remove(self, key: bytes) -> bool:
        """Delete key, value, and any expiry.  True if the key existed."""
        existed = self.data.pop(key, None) is not None
        if existed:
            self.all_keys_sample.discard(key)
        self.clear_expiry(key)
        return existed

    def __contains__(self, key: bytes) -> bool:
        return key in self.data

    def __len__(self) -> int:
        return len(self.data)

    # -- expiry bookkeeping -----------------------------------------------------

    def set_expiry(self, key: bytes, expire_at: float) -> None:
        if key not in self.data:
            raise KeyError(f"cannot set expiry on missing key {key!r}")
        self.expires[key] = expire_at
        self.expires_sample.add(key)

    def get_expiry(self, key: bytes) -> Optional[float]:
        return self.expires.get(key)

    def clear_expiry(self, key: bytes) -> bool:
        had = self.expires.pop(key, None) is not None
        if had:
            self.expires_sample.discard(key)
        return had

    @property
    def volatile_count(self) -> int:
        return len(self.expires)

    # -- iteration --------------------------------------------------------------

    def keys(self) -> List[bytes]:
        return list(self.data.keys())

    def records(self) -> Iterator[Tuple[bytes, RedisValue,
                                        Optional[float], None]]:
        """``(key, value, expire_at, None)`` per key in key order: a
        stored record's shape, without metadata columns (this keyspace
        keeps none).  The database must not change until it is
        consumed."""
        expires = self.expires
        for key, value in self.data.items():
            yield key, value, expires.get(key), None

    def flush(self) -> int:
        """Remove everything; returns the number of keys dropped."""
        count = len(self.data)
        self.data.clear()
        self.expires.clear()
        self.expires_sample = RandomAccessSet()
        self.all_keys_sample = RandomAccessSet()
        return count
