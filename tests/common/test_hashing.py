"""Tests for hashing utilities."""

from repro.cluster.slots import slot_for_key
from repro.common.hashing import (
    GENESIS_HASH,
    chain_hash,
    crc16_xmodem,
    crc32_of,
    fnv1a_64,
    sha256_bytes,
    sha256_hex,
)


class TestFnv:
    def test_deterministic(self):
        assert fnv1a_64(12345) == fnv1a_64(12345)

    def test_different_inputs_differ(self):
        assert fnv1a_64(1) != fnv1a_64(2)

    def test_fits_64_bits(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= fnv1a_64(value) < 2**64

    def test_known_answers(self):
        # Read at 4b04875, before the shift-and-mask loop was replaced.
        assert fnv1a_64(0) == 12161962213042174405
        assert fnv1a_64(12345) == 16653943660658674764
        assert fnv1a_64(-1) == 10157053723145373757

    def test_negative_masked(self):
        # Negative ints hash like their two's-complement 64-bit image.
        assert fnv1a_64(-1) == fnv1a_64(2**64 - 1)

    def test_spreads_sequential_inputs(self):
        hashes = {fnv1a_64(i) % 1000 for i in range(100)}
        assert len(hashes) > 80  # sequential ids land far apart


class TestCrc:
    def test_known_value(self):
        assert crc32_of(b"") == 0

    def test_chainable(self):
        whole = crc32_of(b"hello world")
        partial = crc32_of(b" world", crc32_of(b"hello"))
        assert whole == partial

    def test_detects_flip(self):
        assert crc32_of(b"data") != crc32_of(b"dataX")


class TestCrc16:
    """Known answers for the checksum behind Redis Cluster's key -> slot
    mapping (CRC-16/XMODEM: poly 0x1021, init 0, no reflection)."""

    def test_check_value(self):
        assert crc16_xmodem(b"123456789") == 0x31C3

    def test_empty_is_zero(self):
        assert crc16_xmodem(b"") == 0

    def test_slots_match_redis_cluster(self):
        assert slot_for_key("foo") == 12182
        assert slot_for_key("bar") == 5061
        assert slot_for_key(b"foo") == 12182

    def test_hash_tag_selects_the_hashed_span(self):
        assert slot_for_key("{user1000}.following") \
            == slot_for_key("{user1000}.followers") \
            == slot_for_key("user1000")


class TestSha:
    def test_hex_length(self):
        assert len(sha256_hex(b"x")) == 64

    def test_bytes_length(self):
        assert len(sha256_bytes(b"x")) == 32


class TestChainHash:
    def test_deterministic(self):
        assert chain_hash(GENESIS_HASH, b"a") == chain_hash(GENESIS_HASH,
                                                            b"a")

    def test_payload_sensitivity(self):
        assert chain_hash(GENESIS_HASH, b"a") != chain_hash(GENESIS_HASH,
                                                            b"b")

    def test_prev_sensitivity(self):
        one = chain_hash(GENESIS_HASH, b"a")
        assert chain_hash(one, b"a") != chain_hash(GENESIS_HASH, b"a")

    def test_genesis_stable(self):
        assert GENESIS_HASH == sha256_hex(b"repro-audit-genesis")
