"""RDB-style point-in-time snapshots with integrity checksums.

This is the one snapshot format of every engine: a store's
``save_snapshot`` / ``load_snapshot`` (implemented once on
:class:`~repro.engine.base.StorageEngine`) go through :func:`dump` and
:func:`load`, and each engine supplies only its records.  The binary
layout is a simplified RDB: a magic/version header, per-database
sections, length-prefixed records with a flags byte, an optional expiry
deadline, optional GDPR metadata columns (owner, purposes -- written
only by engines that keep them) and a type-tagged value, and a trailing
CRC-32 over everything before it.  Snapshots matter to the GDPR
analysis because they are one of the "internal subsystems" where deleted
personal data can outlive a DEL (section 4.3); the GDPR layer therefore
tracks snapshot lineage and the erasure engine can force re-dumps.
"""

from __future__ import annotations

import struct
from typing import List

from ..common.errors import CorruptionError
from ..common.hashing import crc32_of
from ..engine.base import SnapshotImage, StoredRecord
from .datatypes import (
    TYPE_HASH,
    TYPE_STRING,
    TYPE_ZSET,
    RedisValue,
    ZSet,
    type_name,
)

MAGIC = b"REPRODB1"

_HAS_EXPIRY = 1
_HAS_METADATA = 2

_TYPE_CODES = {TYPE_STRING: 0, TYPE_HASH: 1, TYPE_ZSET: 4}
_CODE_TYPES = {v: k for k, v in _TYPE_CODES.items()}

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")


def _pack_bytes(out: List[bytes], data: bytes) -> None:
    out.append(_U32.pack(len(data)))
    out.append(data)


def _pack_value(out: List[bytes], value: RedisValue) -> None:
    kind = type_name(value)
    out.append(bytes([_TYPE_CODES[kind]]))
    if kind == TYPE_STRING:
        _pack_bytes(out, value)
    elif kind == TYPE_HASH:
        out.append(_U32.pack(len(value)))
        for field in sorted(value):
            _pack_bytes(out, field)
            _pack_bytes(out, value[field])
    else:  # zset
        out.append(_U32.pack(len(value)))
        for member, score in value.items():
            _pack_bytes(out, member)
            out.append(_F64.pack(score))


class Reader:
    """Bounds-checked cursor over snapshot bytes: a read past the end
    raises :class:`CorruptionError` instead of returning short data."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CorruptionError("snapshot truncated")
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def byte(self) -> int:
        return self.take(1)[0]

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)


def _read_value(reader: Reader) -> RedisValue:
    """Parse one type-tagged value (the payload layout of
    :func:`_pack_value`)."""
    kind = _CODE_TYPES.get(reader.byte())
    if kind is None:
        raise CorruptionError("unknown value type code")
    value: RedisValue
    if kind == TYPE_STRING:
        value = reader.blob()
    elif kind == TYPE_HASH:
        value = {reader.blob(): reader.blob()
                 for _ in range(reader.u32())}
        # Note: dict comprehension evaluates key then value in
        # insertion order, matching _pack_value's layout.
    else:
        value = ZSet()
        for _ in range(reader.u32()):
            member = reader.blob()
            value.add(member, reader.f64())
    return value


DUMP_MAGIC = b"REPRODMP1"


def dump_value(value: RedisValue) -> bytes:
    """Serialize one value as a self-contained DUMP payload.

    The format mirrors Redis' ``DUMP``: a version-tagged body (the same
    type-tagged encoding snapshots use) with a trailing CRC-32, so a
    payload can travel between nodes -- this is what slot migration ships
    over the wire -- and be integrity-checked on RESTORE.
    """
    out: List[bytes] = [DUMP_MAGIC]
    _pack_value(out, value)
    body = b"".join(out)
    return body + _U32.pack(crc32_of(body))


def load_value(data: bytes) -> RedisValue:
    """Parse and verify a :func:`dump_value` payload."""
    if len(data) < len(DUMP_MAGIC) + 5:
        raise CorruptionError("dump payload too small")
    body, crc_bytes = data[:-4], data[-4:]
    if crc32_of(body) != _U32.unpack(crc_bytes)[0]:
        raise CorruptionError("dump payload CRC mismatch")
    reader = Reader(body)
    if reader.take(len(DUMP_MAGIC)) != DUMP_MAGIC:
        raise CorruptionError("bad dump payload magic")
    value = _read_value(reader)
    if not reader.exhausted:
        raise CorruptionError("trailing bytes after dump payload")
    return value


def dump(databases: SnapshotImage) -> bytes:
    """Serialize records, grouped by database, to snapshot bytes
    (CRC-terminated; empty databases are left out)."""
    out: List[bytes] = [MAGIC]
    populated = []
    for index, records in sorted(databases.items()):
        records = list(records)
        if records:
            populated.append((index, records))
    out.append(_U32.pack(len(populated)))
    for index, records in populated:
        out.append(_U32.pack(index))
        out.append(_U64.pack(len(records)))
        for key, value, expire_at, metadata in records:
            _pack_bytes(out, key)
            flags = (_HAS_EXPIRY if expire_at is not None else 0) \
                | (_HAS_METADATA if metadata is not None else 0)
            out.append(bytes([flags]))
            if expire_at is not None:
                out.append(_F64.pack(expire_at))
            if metadata is not None:
                for column in metadata:
                    _pack_bytes(out, column.encode("utf-8"))
            _pack_value(out, value)
    body = b"".join(out)
    return body + _U32.pack(crc32_of(body))


def load(data: bytes) -> SnapshotImage:
    """Parse snapshot bytes into records grouped by database.

    Verifies the trailing CRC before trusting any byte, and rejects
    unknown record flags and bytes left over after the declared records.
    """
    if len(data) < len(MAGIC) + 8:
        raise CorruptionError("snapshot too small")
    body, crc_bytes = data[:-4], data[-4:]
    if crc32_of(body) != _U32.unpack(crc_bytes)[0]:
        raise CorruptionError("snapshot CRC mismatch")
    reader = Reader(body)
    if reader.take(len(MAGIC)) != MAGIC:
        raise CorruptionError("bad snapshot magic")
    databases: SnapshotImage = {}
    for _ in range(reader.u32()):
        records = databases.setdefault(reader.u32(), [])
        for _ in range(reader.u64()):
            key = reader.blob()
            flags = reader.byte()
            if flags & ~(_HAS_EXPIRY | _HAS_METADATA):
                raise CorruptionError("unknown snapshot record flags")
            expire_at = reader.f64() if flags & _HAS_EXPIRY else None
            metadata = None
            if flags & _HAS_METADATA:
                try:
                    metadata = (reader.blob().decode("utf-8"),
                                reader.blob().decode("utf-8"))
                except UnicodeDecodeError:
                    raise CorruptionError("snapshot metadata is not UTF-8")
            records.append(StoredRecord(key, _read_value(reader),
                                         expire_at, metadata))
    if not reader.exhausted:
        raise CorruptionError("trailing bytes after snapshot records")
    return databases
