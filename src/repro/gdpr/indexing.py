"""Secondary metadata indexes (GDPR Art. 15, 20, 21; paper section 5.1).

GDPR repeatedly needs *groups* of records: everything owned by a subject
(access, erasure, portability) and everything processable under a purpose
(purpose limitation, objections).
Key-value stores have no native secondary indexes -- the paper names
"efficient metadata indexing" a research challenge -- so the GDPR layer
maintains its own inverted indexes, updated transactionally with each put
and delete.  Retention deadlines are the engine's: its expiry is the only
deadline authority, so the index keeps none of its own.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..common.clock import Clock
from .metadata import GDPRMetadata

#: Seconds between write-behind flushes of the fast-GDPR dirty-set.
WRITEBEHIND_INTERVAL = 0.1


class MetadataIndex:
    """Inverted indexes over record metadata.

    All lookups are O(result); updates are O(#attributes).  The index is
    authoritative only in memory -- after a restart it is rebuilt from a
    keyspace scan (see ``GDPRStore.rebuild_indexes``), which is itself the
    honest cost of bolting indexing onto an index-free substrate.
    """

    def __init__(self) -> None:
        self._by_owner: Dict[str, Set[str]] = {}
        self._by_purpose: Dict[str, Set[str]] = {}
        self._objections: Dict[str, Set[str]] = {}
        self._metadata: Dict[str, GDPRMetadata] = {}

    # -- maintenance ---------------------------------------------------------------

    def add(self, key: str, metadata: GDPRMetadata) -> None:
        if key in self._metadata:
            if self._metadata[key] is metadata:
                return      # re-stored under the metadata it was read with
            self.remove(key)
        self._metadata[key] = metadata
        self._by_owner.setdefault(metadata.owner, set()).add(key)
        for purpose in metadata.purposes:
            self._by_purpose.setdefault(purpose, set()).add(key)
        for purpose in metadata.objections:
            self._objections.setdefault(purpose, set()).add(key)

    def remove(self, key: str) -> Optional[GDPRMetadata]:
        metadata = self._metadata.pop(key, None)
        if metadata is None:
            return None
        self._discard(self._by_owner, metadata.owner, key)
        for purpose in metadata.purposes:
            self._discard(self._by_purpose, purpose, key)
        for purpose in metadata.objections:
            self._discard(self._objections, purpose, key)
        return metadata

    @staticmethod
    def _discard(table: Dict[str, Set[str]], attr: str, key: str) -> None:
        bucket = table.get(attr)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del table[attr]

    def clear(self) -> None:
        self.__init__()

    # -- queries -----------------------------------------------------------------------

    def get_metadata(self, key: str) -> Optional[GDPRMetadata]:
        return self._metadata.get(key)

    def keys(self) -> List[str]:
        """Every indexed key (the GDPR layer's view of the keyspace);
        slot migration scans this to find a slot's resident records."""
        return list(self._metadata)

    def __contains__(self, key: str) -> bool:
        return key in self._metadata

    def __len__(self) -> int:
        return len(self._metadata)

    def keys_of_owner(self, owner: str) -> List[str]:
        return sorted(self._by_owner.get(owner, ()))

    def keys_for_purpose(self, purpose: str) -> List[str]:
        """Keys whitelisted for ``purpose`` minus those objecting to it."""
        allowed = self._by_purpose.get(purpose, set())
        objected = self._objections.get(purpose, set())
        return sorted(allowed - objected)

    def purposes(self) -> List[str]:
        return sorted(self._by_purpose)

    def rebuild(self, entries: Iterable[Tuple[str, GDPRMetadata]]) -> int:
        """Reconstruct from a scan; returns entries indexed."""
        self.clear()
        count = 0
        for key, metadata in entries:
            self.add(key, metadata)
            count += 1
        return count


class WriteBehindIndexer:
    """Deferred compliance maintenance: a dirty-set flushed off-path.

    The fast-GDPR mode enqueues per-write follow-up work here (engine
    metadata annotation, storage-location bookkeeping) instead of paying
    it inside the client-visible operation.  A recurring timer on the
    store's clock drains the dirty-set every ``WRITEBEHIND_INTERVAL``
    seconds; consumers that need a current view (subject access, index
    rebuild, shutdown) call :meth:`flush` first -- the visibility-window
    trade-off is the whole point, and it is bounded by that interval.

    Only the *latest* entry per key survives coalescing, and a flush
    hands the whole batch to ``apply_fn`` in one call -- the
    write-behind win twice over: a hot key rewritten many times per
    interval costs one deferred entry, and every key pending at a flush
    shares one apply (on the relational engine, one statement).
    """

    def __init__(self, apply_fn: Callable[[Dict[str, object]], None],
                 clock: Clock) -> None:
        self._apply = apply_fn
        self._pending: Dict[str, object] = {}
        self.flushes = 0
        self.applied = 0
        self.coalesced = 0
        self.timer = clock.every(WRITEBEHIND_INTERVAL, self.flush,
                                 label="gdpr-writebehind")

    def enqueue(self, key: str, work: object) -> None:
        if key in self._pending:
            self.coalesced += 1
        self._pending[key] = work

    def discard(self, key: str) -> bool:
        """Drop pending work for ``key`` (it was deleted before the flush
        -- applying stale maintenance to a dead key would resurrect
        state)."""
        return self._pending.pop(key, None) is not None

    @property
    def pending(self) -> int:
        return len(self._pending)

    def flush(self) -> int:
        """Apply all pending work (key -> work, in enqueue order) in one
        call; returns entries applied."""
        if not self._pending:
            return 0
        batch = self._pending
        self._pending = {}
        self._apply(batch)
        self.flushes += 1
        self.applied += len(batch)
        return len(batch)
