"""Equivalence of the fast host paths with the implementations they
replaced (hypothesis).

The erasure scan, the envelope XOR, the RESP command encoder and the audit
serialiser were rewritten to do their byte work in C and their log work
once; the audit record's body and its block's line became one template
each and
the envelope header a memoised function of the frozen metadata; a split
log answers the residual check from its parts' index instead of scanning
them.  None of them may change a result: the slow formulations live on
here, as the oracles.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.common.errors import (PersistenceError, ProtocolError,
                                 ReproError, SerializationError)
from repro.common.hashing import GENESIS_HASH, chain_hash
from repro.common.resp import encode_command
from repro.crypto.cipher import KEY_SIZE, NONCE_SIZE, StreamCipher
from repro.device.append_log import AppendLog
from repro.gdpr.audit import (AuditDurability, AuditLog, AuditRecord,
                              _record_payload)
from repro.gdpr.metadata import GDPRMetadata, pack_envelope, unpack_envelope
from repro.kvstore import KeyValueStore, StoreConfig
from repro.kvstore.aof import contains_key, mentioned_keys, replay_commands
from repro.sqlstore import RelationalStore, SqlConfig

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


# -- a split log's residual check -------------------------------------------------

# Keys of the histories below.  Not b"0": ``read_all`` joins parts that
# select databases with a ``SELECT 0`` that is on no part of the device.
HISTORY_KEYS = [b"k", b"k1", b"user:1", b"user:10", b"SET", b"1", b"PXAT",
                b"service"]
FILLER = 800            # records of 100 bytes: the split makes 3+ parts
DEADLINE = b"1000000"   # PXAT milliseconds: far past any test's clock

history_values = st.one_of(st.sampled_from(HISTORY_KEYS),
                           st.binary(max_size=12))
history_steps = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 2),
              st.sampled_from(HISTORY_KEYS), history_values, st.booleans()),
    st.tuples(st.just("get"), st.integers(0, 2),
              st.sampled_from(HISTORY_KEYS)),
    st.tuples(st.just("del"), st.integers(0, 2),
              st.lists(st.sampled_from(HISTORY_KEYS), min_size=1,
                       max_size=4)),
    st.tuples(st.just("read"), st.sampled_from(HISTORY_KEYS)),
    st.tuples(st.just("meta"), st.sampled_from(HISTORY_KEYS),
              history_values, st.booleans()),
    st.tuples(st.just("rewrite"), st.lists(st.sampled_from(HISTORY_KEYS),
                                           max_size=3)),
    st.tuples(st.just("rewrite-all")),
    st.tuples(st.just("reopen"), st.booleans()))


def split_engine(kind):
    """An engine logging reads too, its log split into parts by a
    rewrite naming one key."""
    clock = SimClock()
    if kind == "redislike":
        engine = KeyValueStore(StoreConfig(appendonly=True,
                                           aof_log_reads=True),
                               clock=clock, aof_log=AppendLog(clock=clock))
    else:
        engine = RelationalStore(SqlConfig(wal_enabled=True,
                                           wal_log_reads=True),
                                 clock=clock, wal_log=AppendLog(clock=clock))
    for i in range(FILLER):
        engine.execute("SET", f"fill{i}", b"f" * 100)
    engine.rewrite_aof([b"fill0"])
    assert len(engine.aof._parts) >= 3
    return engine


def run_step(engine, kind, step):
    """Run one history step; returns the engine (a new one on reopen)."""
    op = step[0]
    if op == "reopen":
        log = engine.aof_log
        log.flush_and_fsync()
        if step[1] and log.file in engine.aof.part_files() \
                and log.total_length > 3:
            log.truncate(log.total_length - 3)      # a torn final record
        return engine.reopen()
    if op == "rewrite":
        engine.rewrite_aof(step[1])
    elif op == "rewrite-all":
        engine.rewrite_aof()
    elif op == "read":
        # A logged read without key positions, naming the key as an
        # argument: RANGE on the relational engine, KEYS on the other.
        if kind == "relational":
            engine.execute("RANGE", step[1], 2)
        else:
            engine.execute("KEYS", step[1])
    elif op == "meta":
        # A record whose metadata (or, on the other engine, whose hash
        # field and value) may name a key, with or without a deadline:
        # a rewrite lays it out again.
        key, value, expires = step[1:]
        if kind == "relational":
            engine.execute("SET", key, b"v")
            engine.execute("GDPRMETA", key, value, b"service")
        else:
            engine.execute("HSET", key + b":h", value, key)
            if expires:
                engine.execute("PEXPIREAT", key + b":h", DEADLINE)
    else:
        if op == "set":
            argv = ["SET", step[2], step[3]]
            if step[4]:
                argv += ["PXAT", DEADLINE]
        elif op == "get":
            argv = ["GET", step[2]]
        else:
            argv = ["DEL", *step[2]]
        # The relational engine has one database.
        db = step[1] if kind == "redislike" else 0
        try:
            engine.execute(*argv, session=engine.session(db))
        except ReproError:
            pass                        # a refused command logs nothing
    return engine


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["redislike", "relational"]),
       st.lists(history_steps, max_size=12), st.data())
def test_split_log_mentioned_keys_equals_full_decode(kind, history, data):
    """The split log answers the residual check from its parts' index.
    Whatever the history, each part's index is the hash of every
    argument its records carry, the answer for the keys a step asks
    about is a full decode's, and at the end so is the answer for each
    key alone over :meth:`read_all` (a part holding some other asked-for
    key is read anyway)."""
    engine = split_engine(kind)
    for step in history:
        engine = run_step(engine, kind, step)
        aof = engine.aof
        assert aof.split
        arguments = []
        for part, part_data in zip(aof._parts,
                                   aof.log.read_files(aof.part_files())):
            records = replay_commands(part_data,
                                      tolerate_truncated_tail=False)
            arguments.append({arg for args in records for arg in args[1:]})
            assert part.hashes == set(map(hash, arguments[-1]))
        keys = data.draw(st.lists(st.sampled_from(HISTORY_KEYS),
                                  min_size=1, max_size=3))
        assert aof.mentioned_keys(keys) == set().union(
            *[named.intersection(keys) for named in arguments])
    expected = parsed_mentions(engine.aof.read_all(), HISTORY_KEYS)
    for key in HISTORY_KEYS:
        assert engine.aof.mentioned_keys([key]) == expected & {key}


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


def block_line(tip, members, sealed_at):
    """A block's line and hash, by the encoder: the members' bodies and
    the seal instant, then the chain hash of every byte before it."""
    head = (b'{"members":[' + b",".join(map(payload_of, members))
            + b'],"sealed_at":' + dumps(round(sealed_at, 9)))
    block_hash = chain_hash(tip, head)
    return head + b',"hash":' + dumps(block_hash) + b"}\n", block_hash


# Everything an escaper can get wrong: quotes, backslashes, control
# characters, non-BMP code points, lone surrogates.  JSON reads an escaped
# high surrogate followed by an escaped low one back as a single code
# point, so text that must survive a round trip draws its lone surrogates
# from one half only; ``wild_names`` (bytes compared, nothing parsed)
# mixes both.
AWKWARD = '"\\/\x00\x1f\x7f\u2028\xe9\u4e2d\U0001f600ab'


def texts(max_size, min_size=0):
    return st.one_of(
        st.text(min_size=min_size, max_size=max_size),
        st.text(alphabet=AWKWARD + "\ud800\udbff", min_size=min_size,
                max_size=max_size),
        st.text(alphabet=AWKWARD + "\udc00\udfff", min_size=min_size,
                max_size=max_size))


names = texts(12)
wild_names = st.one_of(
    names, st.text(alphabet=AWKWARD + "\ud800\udfff", max_size=12))
maybe_names = st.one_of(st.none(), names)
appends = st.fixed_dictionaries({
    "principal": names, "operation": names, "key": maybe_names,
    "subject": maybe_names, "purpose": maybe_names,
    "outcome": st.sampled_from(["ok", "denied", "error"]),
    "detail": texts(40)})
# Simulated seconds between appends (so timestamps need rounding).
gaps = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@given(st.lists(st.tuples(appends, gaps), max_size=20),
       st.sampled_from([AuditDurability.SYNC, AuditDurability.BATCH]),
       st.integers(1, 6))
def test_block_lines_hashes_and_verify(entries, durability, block_size):
    """SYNC seals each record outside a scope as its own block; BATCH
    (no timer here) seals ``block_size`` at a time, and the final
    ``sync`` the rest: each block sealed as its last member is
    appended."""
    clock = SimClock()
    log = AuditLog(clock=clock, durability=durability,
                   block_size=block_size, batch_interval=0.0)
    records = []
    for fields, gap in entries:
        clock.advance(gap)
        log.append(**fields)
        records.append(AuditRecord(len(records), clock.now(), **fields))
    log.sync()
    size = 1 if durability is AuditDurability.SYNC else block_size
    tip = GENESIS_HASH
    lines = []
    for first in range(0, len(records), size):
        members = records[first:first + size]
        line, tip = block_line(tip, members, members[-1].timestamp)
        lines.append(line)
    assert log.log.read_all() == b"".join(lines)
    assert log.blocks_sealed == len(lines)
    # What a read returns is what the device holds: each timestamp to
    # the nanosecond.
    assert AuditLog.parse(log.log.read_all()) == log.records() == [
        dataclasses.replace(record, timestamp=round(record.timestamp, 9))
        for record in records]
    assert log.verify() == log.verify_durable() == len(entries)


# -- audit record templates -------------------------------------------------------

def outcome(fn, *args):
    """What a call did: its result, or the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:    # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)


stamps = st.one_of(
    st.sampled_from([0.0, -0.0, 1e22, 5e-324, 0.1 + 0.2, 1e16, 1.5e300,
                     123456789.123456789]),
    st.floats(allow_nan=False, allow_infinity=False))
# (seq, timestamp, principal, operation, key, subject, purpose, outcome,
# detail): the shapes a template prints itself ...
maybe_wild = st.one_of(st.none(), wild_names)
printable = st.tuples(st.integers(0, 2 ** 70), stamps, wild_names,
                      wild_names, maybe_wild, maybe_wild, maybe_wild,
                      wild_names, wild_names)
# ... and, as (position, value), the ones it must leave to the encoder:
# a non-finite or int timestamp, a bool/float seq, a non-str field --
# the last three unserialisable, where both sides must raise alike.
unprintable = st.sampled_from([
    (1, float("nan")), (1, float("inf")), (1, float("-inf")), (1, 7),
    (1, 10 ** 400), (1, True),
    (0, True), (0, False), (0, 2.0), (2, None), (2, 5), (3, 1.5),
    (4, 5), (5, ["a"]), (6, {"a": 1}), (7, None), (8, None),
    (2, b"raw"), (4, b"raw"), (8, {1, 2})])


@settings(max_examples=400)
@given(printable, st.one_of(st.none(), unprintable))
def test_record_templates_equal_the_encoder(fields, swap):
    if swap is not None:
        position, value = swap
        fields = fields[:position] + (value,) + fields[position + 1:]
    record = AuditRecord(*fields)
    assert outcome(_record_payload, *fields) == outcome(payload_of, record)


# -- envelope header --------------------------------------------------------------

def pack_per_call(metadata, value):
    """``pack_envelope`` as it was: ``to_dict`` + an encode per call."""
    header = dumps(metadata.to_dict())
    if b"\x00" in header:
        raise SerializationError("metadata header contains NUL")
    return header + b"\x00" + value


# Metadata that the envelope round-trips at all (see ``texts``: two Python
# strings that share one JSON encoding share one header, and only the
# parser's reading of it comes back from a parse).
labels = texts(6, min_size=1)
label_sets = st.frozensets(labels, max_size=3)


@st.composite
def metadatas(draw):
    purposes = draw(label_sets)
    return GDPRMetadata(
        owner=draw(labels), purposes=purposes,
        objections=draw(label_sets) - purposes,
        ttl=draw(st.one_of(st.none(), st.integers(1, 10 ** 6),
                           st.floats(min_value=1e-3, max_value=1e9))),
        origin=draw(labels), shared_with=draw(label_sets),
        allowed_regions=draw(label_sets),
        created_at=draw(st.floats(min_value=0.0, max_value=1e9)),
        decision_making=draw(st.booleans()))


def single_field_variants(m):
    """Copies of ``m`` that differ from it in exactly one field."""
    yield dataclasses.replace(m, owner=m.owner + "x")
    yield dataclasses.replace(m, owner=m.owner[:-1] or m.owner + m.owner)
    yield dataclasses.replace(m, purposes=m.purposes | {"\x01new"})
    yield dataclasses.replace(m, objections=m.objections | {"\x01new"})
    yield dataclasses.replace(m, ttl=(m.ttl or 1.0) + 1.0)
    yield dataclasses.replace(m, origin=m.origin + "x")
    yield dataclasses.replace(m, shared_with=m.shared_with | {"\x01new"})
    yield dataclasses.replace(
        m, allowed_regions=m.allowed_regions | {"\x01new"})
    yield dataclasses.replace(m, created_at=m.created_at + 1.0)
    yield dataclasses.replace(m, decision_making=not m.decision_making)


@given(metadatas(), st.binary(max_size=40))
def test_pack_envelope_equals_per_call_serialisation(m, value):
    for _ in range(2):      # derived, then remembered
        assert pack_envelope(m, value) == pack_per_call(m, value)
    assert unpack_envelope(pack_envelope(m, value)) == (m, value)


@given(metadatas(), st.binary(max_size=40))
def test_unpack_with_expected_equals_unpack_without(m, value):
    blob = pack_per_call(m, value)
    parsed = unpack_envelope(blob)
    assert parsed == (m, value)
    # Expecting the stored metadata: itself back, no parse.
    for expected in (m, dataclasses.replace(m)):
        stored, out = unpack_envelope(blob, expected)
        assert stored is expected and (stored, out) == parsed
    assert unpack_envelope(blob, None) == parsed
    # Expecting anything else: the stored header is parsed and wins.
    for variant in single_field_variants(m):
        assert variant != m
        stored, out = unpack_envelope(blob, variant)
        assert (stored, out) == parsed and stored is not variant
        # ... also when the *stored* record is the variant.
        assert unpack_envelope(pack_per_call(variant, value), m) \
            == (variant, value)


@given(metadatas(), metadatas(), st.binary(max_size=40), st.data())
def test_unpack_expected_adversarial_prefixes(m, other, value, data):
    # A value that itself begins with a header (and separator).
    nested = other.envelope_header + value
    blob = pack_per_call(m, nested)
    assert unpack_envelope(blob, m) == unpack_envelope(blob) == (m, nested)
    assert outcome(unpack_envelope, blob, other) \
        == outcome(unpack_envelope, blob)
    # An empty value, a torn envelope, bytes that are no envelope at all.
    for torn in (pack_per_call(m, b""),
                 blob[:data.draw(st.integers(0, len(blob)))], value):
        for expected in (m, other):
            assert outcome(unpack_envelope, torn, expected) \
                == outcome(unpack_envelope, torn)
    # The same metadata in other bytes (json's default spacing) is parsed.
    spaced = json.dumps(m.to_dict()).encode("utf-8") + b"\x00" + value
    stored, out = unpack_envelope(spaced, m)
    assert (stored, out) == (m, value) and stored is not m


def test_owner_that_is_a_prefix_of_the_stored_owner_does_not_match():
    stored = GDPRMetadata(owner="ab", purposes=frozenset({"p"}))
    shorter = GDPRMetadata(owner="a", purposes=frozenset({"p"}))
    for kept, expected in ((stored, shorter), (shorter, stored)):
        blob = pack_envelope(kept, b"value")
        assert unpack_envelope(blob, expected) == (kept, b"value")
        assert unpack_envelope(blob, expected)[0] is not expected


def test_header_outcome_is_the_same_on_every_call():
    """A NUL in the owner is escaped by the dialect (``\\u0000``), so the
    header check passes -- then as now, first call and second; a header
    that cannot be derived fails on every call, never remembered."""
    nul = GDPRMetadata(owner="a\x00b", purposes=frozenset({"\x00"}))
    for _ in range(2):
        assert pack_envelope(nul, b"v") == pack_per_call(nul, b"v")
        assert unpack_envelope(pack_envelope(nul, b"v"), nul) == (nul, b"v")
    raw = GDPRMetadata(owner=b"raw", purposes=frozenset({"p"}))
    for _ in range(2):
        assert outcome(pack_envelope, raw, b"v") \
            == outcome(pack_per_call, raw, b"v")
        assert outcome(pack_envelope, raw, b"v")[0] is TypeError
        assert "envelope_header" not in vars(raw)


@given(metadatas(), labels)
def test_copies_never_inherit_a_header(m, label):
    fresh = dataclasses.replace(m)
    assert m.envelope_header == pack_per_call(m, b"")   # now remembered
    # The memo is invisible to the dataclass protocol ...
    assert (m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
            and dataclasses.asdict(m) == dataclasses.asdict(fresh)
            and m.to_dict() == fresh.to_dict())
    # ... and to every copy, changed or not.
    for copy in (dataclasses.replace(m), m.with_objection(label),
                 m.with_shared(label),
                 dataclasses.replace(m, owner=m.owner + label)):
        assert "envelope_header" not in vars(copy)
        assert pack_envelope(copy, b"v") == pack_per_call(copy, b"v")
