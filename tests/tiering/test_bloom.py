"""Unit tests for the cold-segment bloom filters."""

import pytest

from repro.tiering.bloom import BloomFilter


def test_no_false_negatives():
    bloom = BloomFilter.for_capacity(500, 0.01)
    members = [f"user:{i}".encode() for i in range(500)]
    bloom.update(members)
    assert all(m in bloom for m in members)


def test_measured_fp_rate_under_configured_bound():
    fp_rate = 0.01
    bloom = BloomFilter.for_capacity(1000, fp_rate)
    bloom.update(f"member:{i}".encode() for i in range(1000))
    trials = 20_000
    false_positives = sum(
        1 for i in range(trials) if f"absent:{i}".encode() in bloom)
    assert false_positives / trials < fp_rate


def test_serialization_round_trip():
    bloom = BloomFilter.for_capacity(64, 0.02)
    bloom.update(f"k{i}".encode() for i in range(64))
    restored = BloomFilter.from_bytes(bloom.to_bytes())
    assert restored.bit_count == bloom.bit_count
    assert restored.hash_count == bloom.hash_count
    assert restored.added == bloom.added
    assert all(f"k{i}".encode() in restored for i in range(64))
    assert restored.to_bytes() == bloom.to_bytes()


def test_deterministic_across_instances():
    # CI's byte-identical bench re-run needs hashing with no per-process
    # randomness (unlike the builtin hash()).
    a = BloomFilter.for_capacity(100, 0.01)
    b = BloomFilter.for_capacity(100, 0.01)
    for bloom in (a, b):
        bloom.update(f"k{i}".encode() for i in range(100))
    assert a.to_bytes() == b.to_bytes()


def test_hash_construction_is_pinned():
    """Fixed vectors for the double-hash construction and the device
    format: ``h1``/``h2`` are the first two 8-byte words of SHA-256 (``h2``
    forced odd), probe ``i`` sets bit ``(h1 + i * h2) % bit_count``, LSB
    first within a byte, behind a ``>III`` header.  A sealed segment's
    subject bloom must answer the same after any rewrite of this module."""
    assert BloomFilter.hash_pair(b"") == \
        (16406829232824261652, 11167788843400149285)
    assert BloomFilter.hash_pair(b"user000042") == \
        (15084200129462431362, 14253602378381185223)
    assert BloomFilter.hash_pair(b"subject-7") == \
        (10884083568861196413, 3248498583111773203)
    small = BloomFilter(64, 3)
    small.update([b"alice", b"bob", b"subject-7"])
    assert small.to_bytes().hex() == \
        "0000004000000003000000030201010508800220"
    assert small.byte_size() == len(small.to_bytes())
    sized = BloomFilter.for_capacity(32, 0.01)
    assert (sized.bit_count, sized.hash_count) == (353, 8)
    sized.update(b"subject-%d" % i for i in range(8))
    assert sized.to_bytes().hex() == (
        "000001610000000800000008001630020040204521008108211680c849200084"
        "00505200080094002020700581100060000120c00800480100")
    for item in (b"alice", b"bob", b"subject-7"):
        assert item in small
        assert small.contains_hashed(*BloomFilter.hash_pair(item))
    assert b"carol" not in small


def test_empty_filter_matches_nothing():
    bloom = BloomFilter.for_capacity(16, 0.01)
    assert b"anything" not in bloom
    assert not any(bloom._bits)


def test_from_bytes_rejects_garbage():
    with pytest.raises(ValueError):
        BloomFilter.from_bytes(b"\x00\x01")
    good = BloomFilter.for_capacity(8, 0.1).to_bytes()
    with pytest.raises(ValueError):
        BloomFilter.from_bytes(good[:-1])


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        BloomFilter(0, 3)
    with pytest.raises(ValueError):
        BloomFilter(64, 0)
    with pytest.raises(ValueError):
        BloomFilter.for_capacity(10, 1.5)
