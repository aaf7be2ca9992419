"""Equivalence of the fast host paths with the implementations they
replaced (hypothesis).

The erasure scan, the envelope XOR, the RESP command encoder and the audit
serialiser were rewritten to do their byte work in C and their log work
once.  None of them may change a result: the slow formulations live on
here, as the oracles.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.common.errors import PersistenceError, ProtocolError
from repro.common.hashing import GENESIS_HASH, chain_hash
from repro.common.resp import encode_command
from repro.crypto.cipher import KEY_SIZE, NONCE_SIZE, StreamCipher
from repro.gdpr.audit import (BLOCK_DIGEST_SEED, AuditChainMode,
                              AuditDurability, AuditLog, AuditRecord)
from repro.kvstore.aof import contains_key, mentioned_keys, replay_commands

CRLF = b"\r\n"


# -- erasure scan -----------------------------------------------------------------

def parsed_mentions(data, keys):
    """The definition: a full decode, then a membership test per key."""
    commands = replay_commands(data)
    return {key for key in keys
            if any(key in args[1:] for args in commands)}


def frame(args, pad=1):
    """One RESP command, its bulk length headers zero-padded to ``pad``
    digits (``$03`` decodes like ``$3``: a non-canonical header)."""
    out = [b"*%d\r\n" % len(args)]
    for arg in args:
        out.append(b"$" + str(len(arg)).zfill(pad).encode() + CRLF
                   + arg + CRLF)
    return b"".join(out)


# Few distinct keys, some prefixes of others, one empty, one holding CRLF.
log_keys = st.sampled_from(
    [b"k", b"k1", b"k12", b"user:1", b"user:10", b"", b"a\r\nb", b"SET"])
# Values that embed a framed key -- the false positive the scan must not
# report -- next to ordinary ones.
log_values = st.one_of(
    st.binary(max_size=24),
    log_keys.map(lambda key: b"x" + CRLF + key + CRLF + b"y"),
    log_keys.map(lambda key: CRLF + key + CRLF),
    log_keys)
log_commands = st.tuples(
    st.sampled_from([b"SET", b"DEL", b"GET", b"HSET", b"k1"]),
    st.lists(st.one_of(log_keys, log_values), max_size=4),
).map(lambda pair: [pair[0], *pair[1]])
log_streams = st.lists(st.tuples(log_commands, st.integers(1, 3)),
                       max_size=8).map(
    lambda records: b"".join(frame(args, pad) for args, pad in records))


@settings(max_examples=300)
@given(log_streams, st.lists(log_keys, max_size=5), st.data())
def test_mentioned_keys_equals_full_decode(stream, keys, data):
    # Any prefix of a valid stream is the crash shape: a clean run of
    # records, then a truncated tail (the empty log included).
    cut = data.draw(st.integers(0, len(stream)))
    for log in (stream, stream[:cut]):
        expected = parsed_mentions(log, keys)
        assert mentioned_keys(log, keys) == expected
        for key in keys:
            assert contains_key(log, key) == (key in expected)


def test_scan_hit_in_a_value_or_a_torn_tail_is_not_a_mention():
    embedded = encode_command(b"SET", b"other", b"x\r\nvictim\r\ny")
    assert not contains_key(embedded, b"victim")
    torn = encode_command(b"SET", b"keep", b"v") \
        + encode_command(b"SET", b"victim", b"value")[:-3]
    assert b"\r\nvictim\r\n" in torn
    assert not contains_key(torn, b"victim")
    assert contains_key(torn, b"keep")
    assert mentioned_keys(b"", [b"victim", b""]) == set()


def test_command_name_is_not_an_argument():
    log = encode_command(b"PING") + encode_command(b"SET", b"k", b"v")
    assert mentioned_keys(log, [b"PING", b"SET", b"k"]) == {b"k"}


def test_corrupt_stream_raises_only_when_a_key_occurs_in_it():
    corrupt = encode_command(b"SET", b"k", b"v") + b"?garbage\r\n"
    with pytest.raises(PersistenceError):
        parsed_mentions(corrupt, [b"k"])
    with pytest.raises(PersistenceError):
        contains_key(corrupt, b"k")
    assert not contains_key(corrupt, b"absent")     # conclusive without a decode


# -- envelope XOR -----------------------------------------------------------------

def per_byte_transform(cipher, data, nonce):
    stream = cipher.keystream(nonce, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


keys32 = st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE)
nonces = st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE)


@given(keys32, nonces,
       st.one_of(st.sampled_from([0, 1, 31, 32, 33, 1000]),
                 st.integers(0, 300)).flatmap(
           lambda size: st.binary(min_size=size, max_size=size)))
def test_transform_equals_per_byte_xor(key, nonce, data):
    cipher = StreamCipher(key)
    out = cipher.transform(data, nonce)
    assert out == per_byte_transform(cipher, data, nonce)
    assert type(out) is bytes and len(out) == len(data)
    assert cipher.transform(out, nonce) == data


def test_transform_keeps_leading_zero_bytes_and_buffer_types():
    cipher = StreamCipher(b"k" * KEY_SIZE)
    nonce = b"n" * NONCE_SIZE
    stream = cipher.keystream(nonce, 40)
    # plaintext == keystream -> ciphertext all zeros, full length kept
    assert cipher.transform(stream, nonce) == bytes(40)
    assert cipher.transform(bytes(40), nonce) == stream
    assert cipher.transform(bytearray(stream), nonce) == bytes(40)
    assert cipher.transform(b"", nonce) == b""


# -- RESP command encoding --------------------------------------------------------

def concatenating_encode_command(*args):
    """The encoder as it was before the single-format rewrite."""
    out = [b"*" + str(len(args)).encode("ascii") + CRLF]
    for arg in args:
        if isinstance(arg, (int, float)):
            arg = str(arg)
        if isinstance(arg, str):
            arg = arg.encode("utf-8")
        if not isinstance(arg, (bytes, bytearray)):
            raise ProtocolError(
                f"command arguments must be scalar, got {type(arg).__name__}")
        data = bytes(arg)
        out.append(b"$" + str(len(data)).encode("ascii") + CRLF + data + CRLF)
    return b"".join(out)


command_args = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(bytearray),
    st.text(max_size=32),
    st.integers(),
    st.booleans(),
    st.floats())


@given(st.lists(command_args, max_size=8))
def test_encode_command_equals_concatenating_encoder(args):
    encoded = encode_command(*args)
    assert encoded == concatenating_encode_command(*args)
    assert type(encoded) is bytes


@given(st.lists(command_args, max_size=3),
       st.sampled_from([[b"a"], (b"a",), None, {b"a": 1}, memoryview(b"a"),
                        object()]))
def test_encode_command_still_rejects_non_scalars(args, bad):
    with pytest.raises(ProtocolError) as new:
        encode_command(*args, bad)
    with pytest.raises(ProtocolError) as old:
        concatenating_encode_command(*args, bad)
    assert str(new.value) == str(old.value)


# -- audit serialisation ----------------------------------------------------------

def dumps(obj):
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def payload_of(record):
    return dumps({
        "seq": record.seq, "ts": round(record.timestamp, 9),
        "principal": record.principal, "op": record.operation,
        "key": record.key, "subject": record.subject,
        "purpose": record.purpose, "outcome": record.outcome,
        "detail": record.detail})


def line_of(record):
    return dumps({"body": payload_of(record).decode("utf-8"),
                  "prev": record.prev_hash,
                  "hash": record.record_hash}) + b"\n"


names = st.text(max_size=12)
maybe_names = st.one_of(st.none(), names)
appends = st.fixed_dictionaries({
    "principal": names, "operation": names, "key": maybe_names,
    "subject": maybe_names, "purpose": maybe_names,
    "outcome": st.sampled_from(["ok", "denied", "error"]),
    "detail": st.text(max_size=40)})
# Simulated seconds between appends (so timestamps need rounding).
gaps = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@given(st.lists(st.tuples(appends, gaps), max_size=12),
       st.sampled_from(list(AuditDurability)))
def test_record_chain_lines_hashes_and_verify_unchanged(entries, durability):
    clock = SimClock()
    log = AuditLog(clock=clock, durability=durability)
    tip = GENESIS_HASH
    lines = []
    for fields, gap in entries:
        clock.advance(gap)
        record = log.append(**fields)
        # The chain as the replace()-based appender built it.
        unchained = AuditRecord(seq=len(lines), timestamp=clock.now(),
                                **fields)
        digest = chain_hash(tip, payload_of(unchained))
        assert record == dataclasses.replace(
            unchained, prev_hash=tip, record_hash=digest)
        assert record.payload() == payload_of(record)
        assert record.to_line() == line_of(record)
        assert AuditRecord.from_line(record.to_line()) == dataclasses.replace(
            record, timestamp=round(record.timestamp, 9))
        lines.append(line_of(record))
        tip = digest
    assert log.log.read_all() == b"".join(lines)
    assert log.verify() == len(entries)
    log.sync()
    assert log.verify_durable() == len(entries)


@given(st.lists(st.tuples(appends, gaps), min_size=1, max_size=20),
       st.integers(1, 6))
def test_block_chain_lines_hashes_and_verify_unchanged(entries, block_size):
    clock = SimClock()
    log = AuditLog(clock=clock, chain_mode=AuditChainMode.BLOCK,
                   block_size=block_size, auto_timer=False)
    for fields, gap in entries:
        clock.advance(gap)
        log.append(**fields)
    log.sync()
    data = log.log.read_all()
    records = log.records()
    tip = GENESIS_HASH
    lines = []
    for block in AuditLog.parse_blocks(data):
        members = records[block.first_seq:block.first_seq + block.count]
        bodies = [payload_of(member).decode("utf-8") for member in members]
        digest = BLOCK_DIGEST_SEED
        for body in bodies:
            digest = chain_hash(digest, body.encode("utf-8"))
        header = {"first": block.first_seq, "count": block.count,
                  "sealed_at": round(block.sealed_at, 9), "digest": digest}
        block_hash = chain_hash(tip, dumps(header))
        assert (block.digest, block.prev_hash, block.block_hash) \
            == (digest, tip, block_hash)
        assert block.header_payload() == dumps(header)
        assert block.member_bodies == bodies
        lines.append(dumps({**header, "type": "blk", "prev": tip,
                            "hash": block_hash, "members": bodies}) + b"\n")
        assert block.to_line() == lines[-1]
        tip = block_hash
    assert data == b"".join(lines)
    assert log.verify() == len(entries)
    assert log.verify_durable() == len(entries)
