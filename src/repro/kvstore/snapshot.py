"""The DUMP codec: one value as a self-contained, checksummed payload.

``DUMP`` / ``RESTORE`` ship a value through :func:`dump_value` and
:func:`load_value`, slot migration moves keys between nodes with them,
and the tenancy gate reads a payload's size through them.  The payload
is a version tag, a type-tagged value and a trailing CRC-32 over
everything before it, parsed through a bounds-checked :class:`Reader`.

The whole keyspace has no format of its own here: a full sync and a
backup generation both write the log's compacted records
(:func:`repro.kvstore.aof.image`, :meth:`repro.kvstore.aof.AofWriter.
lay_out`).
"""

from __future__ import annotations

import struct
from typing import List

from ..common.errors import CorruptionError
from ..common.hashing import crc32_of
from .datatypes import (
    TYPE_HASH,
    TYPE_STRING,
    TYPE_ZSET,
    RedisValue,
    ZSet,
    type_name,
)

_TYPE_CODES = {TYPE_STRING: 0, TYPE_HASH: 1, TYPE_ZSET: 4}
_CODE_TYPES = {v: k for k, v in _TYPE_CODES.items()}

_U32 = struct.Struct(">I")
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
    """Bounds-checked cursor over payload bytes: a read past the end
    raises :class:`CorruptionError` instead of returning short data."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CorruptionError("payload truncated")
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

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

    The format mirrors Redis' ``DUMP``: a version-tagged body (a
    type-tagged value encoding) with a trailing CRC-32, so a
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
