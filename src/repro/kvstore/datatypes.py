"""Value types held by the key-value store.

The store is typed the way Redis is typed: a key holds exactly one of
string / hash / sorted set, and commands check the type before operating
(raising :class:`~repro.common.errors.WrongTypeError`, Redis' WRONGTYPE).

All user payloads are ``bytes`` end to end -- values arrive over RESP as
bulk strings and are stored verbatim -- so encryption layers and the AOF
never have to guess at text encodings.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..common.errors import WrongTypeError

# Type tags, used by the DUMP payload format.
TYPE_STRING = "string"
TYPE_HASH = "hash"
TYPE_ZSET = "zset"


class ZSet:
    """Sorted set: members ordered by (score, member).

    Backed by a member->score dict plus a bisect-maintained sorted list, so
    ZADD and range queries are O(log n) lookups with O(n) memmove worst
    case -- the same asymptotics that make sorted sets the YCSB Redis
    binding's index for scan workloads.
    """

    __slots__ = ("_scores", "_sorted")

    def __init__(self) -> None:
        self._scores: Dict[bytes, float] = {}
        self._sorted: List[Tuple[float, bytes]] = []

    def add(self, member: bytes, score: float) -> bool:
        """Insert or update; returns True if the member was new."""
        old = self._scores.get(member)
        if old is not None:
            if old == score:
                return False
            idx = bisect.bisect_left(self._sorted, (old, member))
            del self._sorted[idx]
        self._scores[member] = score
        bisect.insort(self._sorted, (score, member))
        return old is None

    def remove(self, member: bytes) -> bool:
        score = self._scores.pop(member, None)
        if score is None:
            return False
        idx = bisect.bisect_left(self._sorted, (score, member))
        del self._sorted[idx]
        return True

    def range_by_score(self, min_score: float, max_score: float,
                       offset: int = 0,
                       count: Optional[int] = None) -> List[bytes]:
        lo = bisect.bisect_left(self._sorted, (min_score, b""))
        hi = bisect.bisect_left(self._sorted,
                                (math.nextafter(max_score, math.inf), b""))
        members = [member for _, member in self._sorted[lo:hi]]
        if offset:
            members = members[offset:]
        if count is not None:
            members = members[:count]
        return members

    def items(self) -> Iterator[Tuple[bytes, float]]:
        for score, member in self._sorted:
            yield member, score

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, member: bytes) -> bool:
        return member in self._scores


RedisValue = Union[bytes, Dict[bytes, bytes], ZSet]


def type_name(value: RedisValue) -> str:
    """The Redis type tag for a stored value."""
    if isinstance(value, bytes):
        return TYPE_STRING
    if isinstance(value, dict):
        return TYPE_HASH
    if isinstance(value, ZSet):
        return TYPE_ZSET
    raise WrongTypeError(f"unsupported stored type {type(value).__name__}")


def expect_zset(value: RedisValue) -> "ZSet":
    if not isinstance(value, ZSet):
        raise WrongTypeError(
            "WRONGTYPE Operation against a key holding the wrong kind "
            "of value")
    return value


def expect_string(value: RedisValue) -> bytes:
    if not isinstance(value, bytes):
        raise WrongTypeError(
            "WRONGTYPE Operation against a key holding the wrong kind "
            "of value")
    return value


def expect_hash(value: RedisValue) -> Dict[bytes, bytes]:
    if not isinstance(value, dict):
        raise WrongTypeError(
            "WRONGTYPE Operation against a key holding the wrong kind "
            "of value")
    return value
