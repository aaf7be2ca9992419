"""Tests for the stream cipher and authenticated envelope."""

import pytest

from repro.common.errors import CryptoError, IntegrityError
from repro.crypto.cipher import (
    KEY_SIZE,
    NONCE_SIZE,
    AuthenticatedCipher,
    StreamCipher,
    random_bytes,
    seeded_entropy,
)


@pytest.fixture
def key():
    return b"k" * KEY_SIZE


class TestStreamCipher:
    def test_roundtrip(self, key):
        cipher = StreamCipher(key)
        nonce = b"n" * NONCE_SIZE
        ciphertext = cipher.encrypt(b"secret payload", nonce)
        assert cipher.decrypt(ciphertext, nonce) == b"secret payload"

    def test_ciphertext_differs_from_plaintext(self, key):
        cipher = StreamCipher(key)
        nonce = b"n" * NONCE_SIZE
        assert cipher.encrypt(b"secret", nonce) != b"secret"

    def test_nonce_changes_ciphertext(self, key):
        cipher = StreamCipher(key)
        a = cipher.encrypt(b"data", b"a" * NONCE_SIZE)
        b = cipher.encrypt(b"data", b"b" * NONCE_SIZE)
        assert a != b

    def test_key_changes_ciphertext(self, key):
        nonce = b"n" * NONCE_SIZE
        a = StreamCipher(key).encrypt(b"data", nonce)
        b = StreamCipher(b"x" * KEY_SIZE).encrypt(b"data", nonce)
        assert a != b

    def test_empty_plaintext(self, key):
        cipher = StreamCipher(key)
        assert cipher.encrypt(b"", b"n" * NONCE_SIZE) == b""

    def test_long_plaintext_spans_blocks(self, key):
        cipher = StreamCipher(key)
        nonce = b"n" * NONCE_SIZE
        payload = bytes(range(256)) * 20
        assert cipher.decrypt(cipher.encrypt(payload, nonce),
                              nonce) == payload

    def test_keystream_start_block(self, key):
        cipher = StreamCipher(key)
        nonce = b"n" * NONCE_SIZE
        full = cipher.keystream(nonce, 96)
        tail = cipher.keystream(nonce, 64, start_block=1)
        assert full[32:] == tail

    def test_bad_key_length(self):
        with pytest.raises(CryptoError):
            StreamCipher(b"short")

    def test_bad_nonce_length(self, key):
        with pytest.raises(CryptoError):
            StreamCipher(key).encrypt(b"x", b"short")


class TestAuthenticatedCipher:
    def test_seal_open_roundtrip(self, key):
        cipher = AuthenticatedCipher(key)
        token = cipher.seal(b"personal data")
        assert cipher.open(token) == b"personal data"

    def test_aad_binding(self, key):
        cipher = AuthenticatedCipher(key)
        token = cipher.seal(b"v", aad=b"key-1")
        assert cipher.open(token, aad=b"key-1") == b"v"
        with pytest.raises(IntegrityError):
            cipher.open(token, aad=b"key-2")

    def test_tampered_ciphertext_rejected(self, key):
        cipher = AuthenticatedCipher(key)
        token = bytearray(cipher.seal(b"value"))
        token[NONCE_SIZE] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.open(bytes(token))

    def test_tampered_tag_rejected(self, key):
        cipher = AuthenticatedCipher(key)
        token = bytearray(cipher.seal(b"value"))
        token[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.open(bytes(token))

    def test_truncated_token_rejected(self, key):
        cipher = AuthenticatedCipher(key)
        with pytest.raises(IntegrityError):
            cipher.open(b"tiny")

    def test_wrong_key_rejected(self, key):
        token = AuthenticatedCipher(key).seal(b"value")
        other = AuthenticatedCipher(b"z" * KEY_SIZE)
        with pytest.raises(IntegrityError):
            other.open(token)

    def test_unique_nonces_give_unique_tokens(self, key):
        cipher = AuthenticatedCipher(key)
        assert cipher.seal(b"same") != cipher.seal(b"same")

    def test_explicit_nonce_deterministic(self, key):
        cipher = AuthenticatedCipher(key)
        nonce = b"n" * NONCE_SIZE
        assert cipher.seal(b"same", nonce=nonce) == \
            cipher.seal(b"same", nonce=nonce)

    def test_overhead_constant(self, key):
        cipher = AuthenticatedCipher(key)
        token = cipher.seal(b"12345")
        assert len(token) - 5 == AuthenticatedCipher.overhead()


def test_random_bytes_length_and_variation():
    assert len(random_bytes(16)) == 16
    assert random_bytes(16) != random_bytes(16)


class TestSeededEntropy:
    def test_same_seed_same_stream(self, key):
        with seeded_entropy(7):
            first = [random_bytes(16) for _ in range(3)]
            token = AuthenticatedCipher(key).seal(b"payload", aad=b"a")
        with seeded_entropy(7):
            assert [random_bytes(16) for _ in range(3)] == first
            assert AuthenticatedCipher(key).seal(b"payload",
                                                 aad=b"a") == token

    def test_sealed_tokens_still_open(self, key):
        cipher = AuthenticatedCipher(key)
        with seeded_entropy(1):
            token = cipher.seal(b"secret", aad=b"k")
        assert cipher.open(token, aad=b"k") == b"secret"

    def test_restores_urandom_on_exit_even_nested(self):
        with seeded_entropy(1):
            outer = random_bytes(16)
            with seeded_entropy(2):
                pass
            # Inner exit restores the *outer* seeded source, not urandom.
            with seeded_entropy(1):
                pass
        with seeded_entropy(1):
            assert random_bytes(16) == outer
        # Back on urandom: two draws must differ.
        assert random_bytes(16) != random_bytes(16)
