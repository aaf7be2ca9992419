"""REdis Serialization Protocol (RESP2) codec.

The kvstore's client and server speak RESP over the simulated network
channels, exactly as real Redis clients speak to a real Redis server (and as
stunnel proxies shuttle opaque RESP bytes).  Implementing the real wire
format keeps the TLS experiment honest: the bytes that cross the simulated
channel are the bytes a Redis deployment would ship.

Supported types::

    +OK\r\n                      simple string   -> SimpleString
    -ERR msg\r\n                 error           -> RespError
    :42\r\n                      integer         -> int
    $5\r\nhello\r\n              bulk string     -> bytes
    $-1\r\n                      null bulk       -> None
    *2\r\n...                    array           -> list
    *-1\r\n                      null array      -> None
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .errors import ProtocolError

CRLF = b"\r\n"


class SimpleString(str):
    """A RESP simple string ('+OK').  Distinct from bulk strings so that
    round-tripping preserves the wire type."""


class RespError(Exception):
    """A RESP protocol-level error value ('-ERR ...').

    It is both a decodable value and an exception, mirroring how client
    libraries surface server errors.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RespError) and other.message == self.message

    def __hash__(self) -> int:
        return hash(("RespError", self.message))


def encode(value: Any) -> bytes:
    """Encode a Python value into RESP bytes.

    ``str`` encodes as a bulk string (what clients send); use
    :class:`SimpleString` for '+' replies.  ``None`` encodes as the null
    bulk string.
    """
    if isinstance(value, SimpleString):
        if "\r" in value or "\n" in value:
            raise ProtocolError("simple strings cannot contain CR/LF")
        return b"+" + value.encode("utf-8") + CRLF
    if isinstance(value, RespError):
        if "\r" in value.message or "\n" in value.message:
            raise ProtocolError("errors cannot contain CR/LF")
        return b"-" + value.message.encode("utf-8") + CRLF
    if isinstance(value, bool):
        # Booleans are not a RESP2 type; encode as integers like Redis does.
        return b":" + (b"1" if value else b"0") + CRLF
    if isinstance(value, int):
        return b":" + str(value).encode("ascii") + CRLF
    if value is None:
        return b"$-1" + CRLF
    if isinstance(value, str):
        value = value.encode("utf-8")
    if isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        return b"$" + str(len(data)).encode("ascii") + CRLF + data + CRLF
    if isinstance(value, (list, tuple)):
        parts = [b"*" + str(len(value)).encode("ascii") + CRLF]
        parts.extend(encode(item) for item in value)
        return b"".join(parts)
    raise ProtocolError(f"cannot encode type {type(value).__name__} as RESP")


def encode_command(*args: Any) -> bytes:
    """Encode a client command as an array of bulk strings."""
    out = [b"*%d\r\n" % len(args)]
    for arg in args:
        if not isinstance(arg, (bytes, bytearray)):
            if isinstance(arg, (int, float)):
                arg = str(arg)
            if not isinstance(arg, str):
                raise ProtocolError(
                    "command arguments must be scalar, "
                    f"got {type(arg).__name__}")
            arg = arg.encode("utf-8")
        out.append(b"$%d\r\n%b\r\n" % (len(arg), arg))
    return b"".join(out)


class RespDecoder:
    """Incremental RESP decoder.

    Feed raw bytes with :meth:`feed`; pull complete values with
    :meth:`next_value`, which returns ``(found, value)`` so that ``None``
    (the null bulk string) is distinguishable from "need more bytes".
    """

    def __init__(self, max_bulk: int = 512 * 1024 * 1024) -> None:
        self._buffer = bytearray()
        self._max_bulk = max_bulk

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def next_value(self) -> Tuple[bool, Any]:
        parsed = self._parse(0)
        if parsed is None:
            return False, None
        value, consumed = parsed
        del self._buffer[:consumed]
        return True, value

    def drain(self) -> List[Any]:
        """Decode every complete value currently buffered."""
        values = []
        cursor = 0
        try:
            while True:
                parsed = self._parse(cursor)
                if parsed is None:
                    return values
                value, cursor = parsed
                values.append(value)
        finally:
            # One trim per call; on a protocol error the values decoded
            # before it are consumed, the offending bytes stay buffered.
            if cursor:
                del self._buffer[:cursor]

    # -- internals -----------------------------------------------------------

    def _parse(self, start: int) -> Optional[Tuple[Any, int]]:
        """Decode the value at offset ``start``: ``(value, end offset)``,
        or ``None`` while it is incomplete.  Never moves the buffer."""
        buffer = self._buffer
        if len(buffer) <= start:
            return None
        line_end = buffer.find(CRLF, start + 1)
        if line_end < 0:
            return None
        marker = buffer[start]
        payload = buffer[start + 1:line_end]
        after = line_end + 2
        complaint = _NUMERIC_HEADERS.get(marker)
        if complaint is None:
            if marker == 43:                                # +
                return SimpleString(payload.decode("utf-8")), after
            if marker == 45:                                # -
                return RespError(payload.decode("utf-8")), after
            raise ProtocolError("unknown RESP type marker: "
                                f"{bytes(buffer[start:start + 1])!r}")
        # A length or integer is an optional ``-`` then ASCII digits; bare
        # int() would also take ``_``, surrounding whitespace and ``+``.
        number = None
        if payload.isdigit() or (payload[:1] == b"-"
                                 and payload[1:].isdigit()):
            try:
                number = int(payload)
            except ValueError:  # CPython's limit on digits per conversion
                pass
        if number is None:
            raise ProtocolError(f"{complaint}: {bytes(payload)!r}")
        if marker == 36:                                    # $
            if number == -1:
                return None, after
            if number < 0 or number > self._max_bulk:
                raise ProtocolError(f"bulk length out of range: {number}")
            end = after + number
            if len(buffer) < end + 2:
                return None
            if buffer[end] != 13 or buffer[end + 1] != 10:
                raise ProtocolError("bulk string not terminated by CRLF")
            return bytes(buffer[after:end]), end + 2
        if marker == 58:                                    # :
            return number, after
        if number == -1:                                    # *
            return None, after
        if number < 0:
            raise ProtocolError(f"array length out of range: {number}")
        items = []
        for _ in range(number):
            parsed = self._parse(after)
            if parsed is None:
                return None
            item, after = parsed
            items.append(item)
        return items, after


# Type markers whose header line is a number, and the complaint when it
# is not one.
_NUMERIC_HEADERS = {36: "bad bulk length", 42: "bad array length",
                    58: "bad integer payload"}


def decode_all(data: bytes) -> List[Any]:
    """Decode a self-contained byte string into all its RESP values."""
    decoder = RespDecoder()
    decoder.feed(data)
    values = decoder.drain()
    if decoder.buffered:
        raise ProtocolError(f"{decoder.buffered} trailing bytes after decode")
    return values
