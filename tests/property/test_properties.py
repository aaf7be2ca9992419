"""Property-based tests (hypothesis) over the core invariants."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import fnv1a_64
from repro.common.histogram import LatencyHistogram
from repro.common.resp import decode_all, encode, encode_command
from repro.crypto.cipher import KEY_SIZE, AuthenticatedCipher, StreamCipher
from repro.gdpr.audit import AuditLog
from repro.gdpr.metadata import GDPRMetadata, pack_envelope, unpack_envelope
from repro.kvstore.datatypes import ZSet

# -- strategies -------------------------------------------------------------------

keys32 = st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE)
payloads = st.binary(max_size=2048)
identifiers = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=16)


# -- RESP codec ---------------------------------------------------------------------

resp_scalars = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.binary(max_size=512),
    st.none(),
)
resp_values = st.recursive(
    resp_scalars,
    lambda children: st.lists(children, max_size=8),
    max_leaves=25)


@given(resp_values)
def test_resp_roundtrip(value):
    assert decode_all(encode(value)) == [value]


@given(st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                max_size=8))
def test_resp_command_roundtrip(args):
    decoded = decode_all(encode_command(*args))
    assert decoded == [args]


@given(st.lists(resp_values, max_size=6), st.integers(1, 7))
def test_resp_incremental_decode_any_chunking(values, chunk):
    from repro.common.resp import RespDecoder

    blob = b"".join(encode(v) for v in values)
    decoder = RespDecoder()
    out = []
    for i in range(0, len(blob), chunk):
        decoder.feed(blob[i:i + chunk])
        out.extend(decoder.drain())
    assert out == values


# -- crypto -----------------------------------------------------------------------


@given(keys32, payloads, st.binary(max_size=64))
def test_seal_open_roundtrip(key, plaintext, aad):
    cipher = AuthenticatedCipher(key)
    assert cipher.open(cipher.seal(plaintext, aad=aad), aad=aad) == \
        plaintext


@given(keys32, payloads, st.integers(0, 5000))
@settings(max_examples=30)
def test_tampering_always_detected(key, plaintext, position):
    import pytest

    from repro.common.errors import IntegrityError

    cipher = AuthenticatedCipher(key)
    token = bytearray(cipher.seal(plaintext))
    token[position % len(token)] ^= 0x5A
    with pytest.raises(IntegrityError):
        cipher.open(bytes(token))


@given(keys32, st.binary(min_size=16, max_size=16), payloads)
def test_stream_cipher_involution(key, nonce, data):
    cipher = StreamCipher(key)
    assert cipher.transform(cipher.transform(data, nonce), nonce) == data


# -- metadata envelope ---------------------------------------------------------------


metadata_strategy = st.builds(
    GDPRMetadata,
    owner=identifiers,
    purposes=st.frozensets(identifiers, max_size=4),
    objections=st.just(frozenset()),
    ttl=st.one_of(st.none(), st.floats(min_value=0.001, max_value=1e9,
                                       allow_nan=False)),
    origin=identifiers,
    shared_with=st.frozensets(identifiers, max_size=3),
    allowed_regions=st.frozensets(identifiers, max_size=3),
    created_at=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    decision_making=st.booleans(),
)


@given(metadata_strategy, payloads)
def test_envelope_roundtrip(metadata, value):
    recovered_meta, recovered_value = unpack_envelope(
        pack_envelope(metadata, value))
    assert recovered_meta == metadata
    assert recovered_value == value


# -- audit chain ---------------------------------------------------------------------


@given(st.lists(st.tuples(identifiers, identifiers), min_size=1,
                max_size=20))
def test_audit_chain_always_verifies(operations):
    log = AuditLog()
    for principal, op in operations:
        log.append(principal, op, key="k")
    assert log.verify() == log.verify_durable() == len(operations)


@given(st.lists(st.tuples(identifiers, identifiers), min_size=2,
                max_size=10),
       st.integers(0, 9), st.data())
@settings(max_examples=30)
def test_audit_edit_always_detected(operations, index, data):
    import pytest

    from repro.common.errors import AuditError

    log = AuditLog()
    for principal, op in operations:
        log.append(principal, op)
    # One block per record: forge the victim's line on the device.
    lines = log.log.read_all().splitlines(keepends=True)
    victim = index % len(lines)
    lines[victim] = lines[victim].replace(
        b'"principal":', b'"principal":"FORGED","was":')
    device = log.log
    device.open("forged")
    device.append(b"".join(lines))
    device.flush_and_fsync()
    device.rename(device.name)
    with pytest.raises(AuditError):
        log.verify()


# -- ZSet vs reference model -----------------------------------------------------------


@given(st.lists(st.tuples(st.sampled_from([b"a", b"b", b"c", b"d", b"e"]),
                          st.one_of(st.floats(-100, 100,
                                              allow_nan=False),
                                    st.none())),
                max_size=40))
def test_zset_matches_reference_model(ops):
    zset = ZSet()
    model = {}
    for member, score in ops:
        if score is None:
            zset.remove(member)
            model.pop(member, None)
        else:
            zset.add(member, score)
            model[member] = score
    assert len(zset) == len(model)
    expected = [m for _, m in sorted(
        ((s, m) for m, s in model.items()))]
    assert zset.range_by_score(float("-inf"), float("inf")) == expected
    assert dict(zset.items()) == model


# -- histogram --------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=1e-9, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=200))
def test_histogram_percentile_bounds(samples):
    hist = LatencyHistogram(relative_error=0.01)
    for latency in samples:
        hist.record(latency)
    p50 = hist.percentile(50)
    assert hist.min() * 0.97 <= p50 <= hist.max() * 1.03
    assert hist.percentile(100) >= max(samples) * 0.97
    assert hist.count == len(samples)


# -- fnv ----------------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_fnv_stays_in_64_bits(value):
    assert 0 <= fnv1a_64(value) < 2**64
