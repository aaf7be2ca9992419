"""Tests for the RESP codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ProtocolError
from repro.common.resp import (
    RespDecoder,
    RespError,
    SimpleString,
    decode_all,
    encode,
    encode_command,
)


class TestEncode:
    def test_simple_string(self):
        assert encode(SimpleString("OK")) == b"+OK\r\n"

    def test_simple_string_rejects_crlf(self):
        with pytest.raises(ProtocolError):
            encode(SimpleString("bad\r\nvalue"))

    def test_error(self):
        assert encode(RespError("ERR nope")) == b"-ERR nope\r\n"

    def test_integer(self):
        assert encode(42) == b":42\r\n"

    def test_negative_integer(self):
        assert encode(-7) == b":-7\r\n"

    def test_bool_encodes_as_integer(self):
        assert encode(True) == b":1\r\n"
        assert encode(False) == b":0\r\n"

    def test_bulk_string_bytes(self):
        assert encode(b"hello") == b"$5\r\nhello\r\n"

    def test_bulk_string_str(self):
        assert encode("hi") == b"$2\r\nhi\r\n"

    def test_empty_bulk(self):
        assert encode(b"") == b"$0\r\n\r\n"

    def test_null(self):
        assert encode(None) == b"$-1\r\n"

    def test_array(self):
        assert encode([1, b"a"]) == b"*2\r\n:1\r\n$1\r\na\r\n"

    def test_empty_array(self):
        assert encode([]) == b"*0\r\n"

    def test_nested_array(self):
        data = encode([[1], [b"x"]])
        assert decode_all(data) == [[[1], [b"x"]]]

    def test_unencodable_type(self):
        with pytest.raises(ProtocolError):
            encode(object())


class TestEncodeCommand:
    def test_simple_command(self):
        assert encode_command("GET", "key") == \
            b"*2\r\n$3\r\nGET\r\n$3\r\nkey\r\n"

    def test_numbers_coerced(self):
        data = encode_command("EXPIRE", "k", 300)
        assert decode_all(data) == [[b"EXPIRE", b"k", b"300"]]

    def test_bytes_passthrough(self):
        data = encode_command(b"SET", b"k", b"\x00\xff")
        assert decode_all(data) == [[b"SET", b"k", b"\x00\xff"]]

    def test_rejects_compound_args(self):
        with pytest.raises(ProtocolError):
            encode_command("SET", ["nested"])


class TestDecoder:
    def roundtrip(self, value):
        return decode_all(encode(value))[0]

    def test_roundtrip_types(self):
        for value in (SimpleString("PONG"), 7, b"payload", None,
                      [b"a", 1, None]):
            assert self.roundtrip(value) == value

    def test_roundtrip_error(self):
        assert self.roundtrip(RespError("ERR x")) == RespError("ERR x")

    def test_incremental_feed(self):
        decoder = RespDecoder()
        data = encode(b"hello world")
        decoder.feed(data[:4])
        found, _ = decoder.next_value()
        assert not found
        decoder.feed(data[4:])
        found, value = decoder.next_value()
        assert found and value == b"hello world"

    def test_null_distinguished_from_incomplete(self):
        decoder = RespDecoder()
        decoder.feed(encode(None))
        found, value = decoder.next_value()
        assert found is True and value is None

    def test_multiple_values_drain(self):
        decoder = RespDecoder()
        decoder.feed(encode(1) + encode(2) + encode(b"x"))
        assert decoder.drain() == [1, 2, b"x"]

    def test_binary_safe_bulk(self):
        payload = bytes(range(256))
        assert self.roundtrip(payload) == payload

    def test_bulk_with_embedded_crlf(self):
        payload = b"line1\r\nline2"
        assert self.roundtrip(payload) == payload

    def test_bad_type_marker(self):
        decoder = RespDecoder()
        decoder.feed(b"!oops\r\n")
        with pytest.raises(ProtocolError):
            decoder.next_value()

    def test_bad_integer(self):
        decoder = RespDecoder()
        decoder.feed(b":notanum\r\n")
        with pytest.raises(ProtocolError):
            decoder.next_value()

    def test_bulk_length_overflow_rejected(self):
        decoder = RespDecoder(max_bulk=10)
        decoder.feed(b"$100\r\n")
        with pytest.raises(ProtocolError):
            decoder.next_value()

    def test_bulk_missing_terminator(self):
        decoder = RespDecoder()
        decoder.feed(b"$3\r\nabcXY")
        with pytest.raises(ProtocolError):
            decoder.next_value()

    def test_trailing_bytes_rejected_by_decode_all(self):
        with pytest.raises(ProtocolError):
            decode_all(encode(1) + b":")

    def test_partial_array_returns_not_found(self):
        decoder = RespDecoder()
        full = encode([b"a", b"b"])
        decoder.feed(full[:-3])
        found, _ = decoder.next_value()
        assert not found
        decoder.feed(full[-3:])
        found, value = decoder.next_value()
        assert found and value == [b"a", b"b"]

    def test_null_array(self):
        decoder = RespDecoder()
        decoder.feed(b"*-1\r\n")
        found, value = decoder.next_value()
        assert found and value is None

    def test_buffered_counts_pending(self):
        decoder = RespDecoder()
        decoder.feed(b"$5\r\nab")
        assert decoder.buffered == len(b"$5\r\nab")


class TestStrictLengths:
    """Lengths and integers are an optional ``-`` then ASCII digits;
    nothing else ``int()`` happens to accept is RESP."""

    @pytest.mark.parametrize("data, message", [
        (b"$1_0\r\n0123456789\r\n", "bad bulk length"),
        (b"$ 2\r\nab\r\n", "bad bulk length"),
        (b"$+2\r\nab\r\n", "bad bulk length"),
        (b"$\r\n", "bad bulk length"),
        (b"$-\r\n", "bad bulk length"),
        (b"$--1\r\n", "bad bulk length"),
        (b"*+1\r\n$2\r\nab\r\n", "bad array length"),
        (b"*1 \r\n$2\r\nab\r\n", "bad array length"),
        (b"*1\r\n$ 2\r\nab\r\n", "bad bulk length"),
        (b": 1_2 \r\n", "bad integer payload"),
        (b":+5\r\n", "bad integer payload"),
        (b":1_000\r\n", "bad integer payload"),
        (b":\xd9\xa1\r\n", "bad integer payload"),     # Arabic-Indic 1
        (b":\r\n", "bad integer payload"),
        (b":" + b"9" * 5000 + b"\r\n", "bad integer payload"),
    ])
    def test_rejected(self, data, message):
        with pytest.raises(ProtocolError, match=message):
            decode_all(data)

    def test_plain_and_negative_forms_still_decode(self):
        assert decode_all(b":-12\r\n:007\r\n$-1\r\n*-1\r\n$2\r\nab\r\n") \
            == [-12, 7, None, None, b"ab"]

    def test_out_of_range_lengths_keep_their_message(self):
        with pytest.raises(ProtocolError, match="bulk length out of range"):
            decode_all(b"$-2\r\n")
        with pytest.raises(ProtocolError, match="array length out of range"):
            decode_all(b"*-2\r\n")


_scalars = st.one_of(
    st.none(),
    st.integers(min_value=-2**63, max_value=2**63),
    st.binary(max_size=40),
    st.text(alphabet=st.characters(blacklist_characters="\r\n",
                                   blacklist_categories=("Cs",)),
            max_size=12).map(SimpleString),
    st.text(alphabet=st.characters(blacklist_characters="\r\n",
                                   blacklist_categories=("Cs",)),
            max_size=12).map(RespError),
)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=4),
                       max_leaves=12)


def _chunks(data, cuts):
    bounds = sorted({min(cut, len(data)) for cut in cuts} | {0, len(data)})
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


class TestChunkedDecoding:
    """However the wire splits a stream, the decoder yields the values
    ``decode_all`` finds in the whole, and ends with an empty buffer."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_values, max_size=6),
           st.lists(st.integers(min_value=0, max_value=400), max_size=12))
    def test_drain_after_each_chunk(self, values, cuts):
        data = b"".join(encode(value) for value in values)
        decoder = RespDecoder()
        seen = []
        for chunk in _chunks(data, cuts):
            decoder.feed(chunk)
            seen.extend(decoder.drain())
        assert seen == decode_all(data) == values
        assert decoder.buffered == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_values, max_size=6),
           st.lists(st.integers(min_value=0, max_value=400), max_size=12),
           st.lists(st.booleans(), min_size=1, max_size=8))
    def test_next_value_and_drain_interleaved_agree(self, values, cuts,
                                                    pulls):
        data = b"".join(encode(value) for value in values)
        decoder = RespDecoder()
        seen = []
        for index, chunk in enumerate(_chunks(data, cuts)):
            decoder.feed(chunk)
            if pulls[index % len(pulls)]:
                found, value = decoder.next_value()
                if found:
                    seen.append(value)
            else:
                seen.extend(decoder.drain())
        seen.extend(decoder.drain())
        assert seen == values
        assert decoder.buffered == 0
