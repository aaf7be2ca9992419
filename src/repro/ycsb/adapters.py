"""Storage adapters binding YCSB operations to the systems under test.

Mirrors YCSB's DB-binding layer.  :class:`KVAdapter` is the YCSB Redis
binding's exact strategy: records are hashes, plus a sorted-set index keyed
by a hash of the record key so scan workloads can enumerate windows.
:class:`SqlAdapter` is the relational binding (the YCSB JDBC strategy):
records are rows whose YCSB fields are columns, and scans walk the
primary-key B-tree natively -- no shadow index.  :class:`GDPRAdapter`
drives the full GDPR layer (metadata, ACL, audit, encryption) over either
engine.
"""

from __future__ import annotations

import bisect
import struct
from typing import Dict, List, Optional

from ..common.errors import SerializationError
from ..common.hashing import crc32_of
from ..gdpr.access_control import Principal
from ..gdpr.metadata import GDPRMetadata
from ..gdpr.store import GDPRStore

INDEX_KEY = "_ycsb_index"


class StorageAdapter:
    """Interface: the five YCSB operations."""

    def flush(self) -> None:
        """Drain any buffered operations (no-op for unbuffered
        adapters); the runner calls this at the end of every phase."""

    def insert(self, key: str, values: Dict[str, bytes]) -> None:
        raise NotImplementedError

    def read(self, key: str,
             fields: Optional[List[str]] = None) -> Dict[str, bytes]:
        raise NotImplementedError

    def update(self, key: str, values: Dict[str, bytes]) -> None:
        raise NotImplementedError

    def scan(self, start_key: str,
             count: int) -> List[Dict[str, bytes]]:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError


def _key_score(key: str) -> float:
    """The YCSB Redis binding indexes records by a hash of the key.

    Scores must be deterministic across processes, so hash the key bytes
    (float conversion keeps 53 bits -- collisions only reorder the index,
    which scan semantics tolerate, exactly as in the reference binding).
    """
    return float(crc32_of(key.encode("utf-8")))


def _pairs_to_dict(flat: List[bytes]) -> Dict[str, bytes]:
    return {flat[i].decode("ascii"): flat[i + 1]
            for i in range(0, len(flat), 2)}


class KVAdapter(StorageAdapter):
    """The Redis-protocol binding: in-process to a
    :class:`~repro.kvstore.store.KeyValueStore`, or over an
    :class:`~repro.kvstore.server.EventConnection` to a server (the
    Figure 1 deployments) -- either one's ``execute``."""

    def __init__(self, store,
                 maintain_scan_index: bool = True) -> None:
        self.store = store
        self.maintain_scan_index = maintain_scan_index

    def insert(self, key: str, values: Dict[str, bytes]) -> None:
        args: List = ["HSET", key]
        for name, payload in values.items():
            args.append(name)
            args.append(payload)
        self.store.execute(*args)
        if self.maintain_scan_index:
            self.store.execute("ZADD", INDEX_KEY, _key_score(key), key)

    def read(self, key: str,
             fields: Optional[List[str]] = None) -> Dict[str, bytes]:
        if fields:
            flat = self.store.execute("HMGET", key, *fields)
            return {name: payload for name, payload in zip(fields, flat)
                    if payload is not None}
        return _pairs_to_dict(self.store.execute("HGETALL", key))

    def update(self, key: str, values: Dict[str, bytes]) -> None:
        args: List = ["HSET", key]
        for name, payload in values.items():
            args.append(name)
            args.append(payload)
        self.store.execute(*args)

    def scan(self, start_key: str,
             count: int) -> List[Dict[str, bytes]]:
        members = self.store.execute(
            "ZRANGEBYSCORE", INDEX_KEY, _key_score(start_key), "+inf",
            "LIMIT", 0, count)
        return [self.read(member.decode("ascii")) for member in members]

    def delete(self, key: str) -> None:
        self.store.execute("DEL", key)
        if self.maintain_scan_index:
            self.store.execute("ZREM", INDEX_KEY, key)


class SqlAdapter(StorageAdapter):
    """YCSB binding for the relational engine (the JDBC strategy).

    Each record is one row; YCSB fields are columns upserted in a
    single statement.  Scans need no auxiliary structure: the ordered
    heap answers ``WHERE key >= start ORDER BY key LIMIT n`` directly
    (the ``RANGE`` statement), which is the structural advantage the
    relational backend has for workload E.
    """

    def __init__(self, store) -> None:
        self.store = store

    def insert(self, key: str, values: Dict[str, bytes]) -> None:
        args: List = ["HSET", key]
        for name, payload in values.items():
            args.append(name)
            args.append(payload)
        self.store.execute(*args)

    update = insert

    def read(self, key: str,
             fields: Optional[List[str]] = None) -> Dict[str, bytes]:
        if fields:
            flat = self.store.execute("HMGET", key, *fields)
            return {name: payload for name, payload in zip(fields, flat)
                    if payload is not None}
        return _pairs_to_dict(self.store.execute("HGETALL", key))

    def scan(self, start_key: str,
             count: int) -> List[Dict[str, bytes]]:
        keys = self.store.execute("RANGE", start_key, count)
        return [self.read(key.decode("ascii")) for key in keys]

    def delete(self, key: str) -> None:
        self.store.execute("DEL", key)


# -- GDPR binding ---------------------------------------------------------------------


def pack_fields(values: Dict[str, bytes]) -> bytes:
    """Length-prefixed field packing (field payloads are arbitrary bytes)."""
    out = [struct.pack(">H", len(values))]
    for name, payload in values.items():
        encoded = name.encode("ascii")
        out.append(struct.pack(">HI", len(encoded), len(payload)))
        out.append(encoded)
        out.append(payload)
    return b"".join(out)


def unpack_fields(blob: bytes) -> Dict[str, bytes]:
    """Inverse of :func:`pack_fields`; a truncated, overrunning or
    over-long blob raises :class:`SerializationError`."""
    try:
        (count,) = struct.unpack_from(">H", blob)
        offset = 2
        values = {}
        for _ in range(count):
            name_len, payload_len = struct.unpack_from(">HI", blob, offset)
            offset += 6
            name = blob[offset:offset + name_len].decode("ascii")
            offset += name_len
            values[name] = blob[offset:offset + payload_len]
            offset += payload_len
    except (struct.error, UnicodeDecodeError) as exc:
        raise SerializationError(f"damaged field blob: {exc}") from exc
    # A slice past the end is short, not an error: any overrun (and any
    # trailing byte) shows as the one mismatch here.
    if offset != len(blob):
        raise SerializationError(
            f"field blob is {len(blob)} bytes, its fields declare {offset}")
    return values


class GDPRAdapter(StorageAdapter):
    """Drives the full GDPR layer: every record is personal data.

    Each YCSB record is owned by a per-record data subject (the worst case
    for key management), processed under a configurable purpose, with an
    optional retention TTL.
    """

    def __init__(self, store: GDPRStore, purpose: str = "service",
                 ttl: Optional[float] = None,
                 principal: Optional[Principal] = None) -> None:
        self.store = store
        self.purpose = purpose
        self.ttl = ttl
        self.principal = principal  # None -> controller
        self._sorted_keys: List[str] = []

    def _metadata_for(self, key: str) -> GDPRMetadata:
        return GDPRMetadata(owner=f"subject-{key}",
                            purposes=frozenset({self.purpose}),
                            ttl=self.ttl)

    def insert(self, key: str, values: Dict[str, bytes]) -> None:
        kwargs = {}
        if self.principal is not None:
            kwargs["principal"] = self.principal
        self.store.put(key, pack_fields(values), self._metadata_for(key),
                       purpose=self.purpose, **kwargs)
        index = bisect.bisect_left(self._sorted_keys, key)
        if index >= len(self._sorted_keys) \
                or self._sorted_keys[index] != key:
            self._sorted_keys.insert(index, key)

    def read(self, key: str,
             fields: Optional[List[str]] = None) -> Dict[str, bytes]:
        kwargs = {}
        if self.principal is not None:
            kwargs["principal"] = self.principal
        record = self.store.get(key, purpose=self.purpose, **kwargs)
        values = unpack_fields(record.value)
        if fields:
            return {name: values[name] for name in fields
                    if name in values}
        return values

    def update(self, key: str, values: Dict[str, bytes]) -> None:
        """One :meth:`GDPRStore.update`: the store merges ``values`` into
        the record's fields and re-stores it under its own metadata, so
        a strict store pays one audit fsync for the update's ``get`` and
        ``put`` records, and the record never reaches the client."""

        def merge(value: bytes) -> bytes:
            current = unpack_fields(value)
            current.update(values)
            return pack_fields(current)

        kwargs = {}
        if self.principal is not None:
            kwargs["principal"] = self.principal
        self.store.update(key, merge, purpose=self.purpose, **kwargs)

    def scan(self, start_key: str,
             count: int) -> List[Dict[str, bytes]]:
        index = bisect.bisect_left(self._sorted_keys, start_key)
        window = self._sorted_keys[index:index + count]
        out = []
        for key in window:
            try:
                out.append(self.read(key))
            except KeyError:
                continue
        return out

    def delete(self, key: str) -> None:
        kwargs = {}
        if self.principal is not None:
            kwargs["principal"] = self.principal
        self.store.delete(key, **kwargs)
        index = bisect.bisect_left(self._sorted_keys, key)
        if index < len(self._sorted_keys) \
                and self._sorted_keys[index] == key:
            del self._sorted_keys[index]
