"""Tests for the key hierarchy and crypto-erasure."""

import pytest

from repro.common.errors import (
    CryptoError,
    IntegrityError,
    KeyErasedError,
    KeyNotFoundError,
)
from repro.crypto.keystore import KeyStore


class TestKeyLifecycle:
    def test_create_and_get(self):
        ks = KeyStore()
        key = ks.create_key("alice")
        assert ks.get_key("alice") == key

    def test_create_is_idempotent(self):
        ks = KeyStore()
        assert ks.create_key("alice") == ks.create_key("alice")

    def test_distinct_subjects_distinct_keys(self):
        ks = KeyStore()
        assert ks.create_key("alice") != ks.create_key("bob")

    def test_missing_key_raises(self):
        with pytest.raises(KeyNotFoundError):
            KeyStore().get_key("nobody")

    def test_contains(self):
        ks = KeyStore()
        ks.create_key("alice")
        assert "alice" in ks
        assert "bob" not in ks

    def test_key_ids_sorted(self):
        ks = KeyStore()
        ks.create_key("b")
        ks.create_key("a")
        assert list(ks.key_ids()) == ["a", "b"]

    def test_bad_master_key_length(self):
        with pytest.raises(CryptoError):
            KeyStore(master_key=b"short")


class TestCryptoErasure:
    def test_erase_removes_key(self):
        ks = KeyStore()
        ks.create_key("alice")
        assert ks.erase_key("alice") is True
        with pytest.raises(KeyErasedError):
            ks.get_key("alice")

    def test_erase_unknown_returns_false(self):
        ks = KeyStore()
        assert ks.erase_key("ghost") is False

    def test_erased_id_cannot_be_recreated(self):
        ks = KeyStore()
        ks.create_key("alice")
        ks.erase_key("alice")
        with pytest.raises(KeyErasedError):
            ks.create_key("alice")

    def test_erasure_voids_ciphertexts(self):
        ks = KeyStore()
        cipher = ks.cipher_for("alice")
        token = cipher.seal(b"pii")
        ks.erase_key("alice")
        with pytest.raises(KeyErasedError):
            ks.cipher_for("alice", create=False)
        assert token  # ciphertext bytes survive, but are unreadable

    def test_erased_ids_listed(self):
        ks = KeyStore()
        ks.create_key("alice")
        ks.erase_key("alice")
        assert list(ks.erased_ids()) == ["alice"]


class TestCipherFor:
    def test_cipher_roundtrip(self):
        ks = KeyStore()
        token = ks.cipher_for("alice").seal(b"v", aad=b"k")
        assert ks.cipher_for("alice").open(token, aad=b"k") == b"v"

    def test_cipher_no_create(self):
        ks = KeyStore()
        with pytest.raises(KeyNotFoundError):
            ks.cipher_for("bob", create=False)

    def test_per_subject_isolation(self):
        ks = KeyStore()
        token = ks.cipher_for("alice").seal(b"v")
        with pytest.raises(IntegrityError):
            ks.cipher_for("bob").open(token)


class TestCipherCache:
    def test_cipher_instance_reused(self):
        ks = KeyStore()
        assert ks.cipher_for("alice") is ks.cipher_for("alice")

    def test_cached_cipher_still_correct(self):
        ks = KeyStore()
        token = ks.cipher_for("alice").seal(b"v", aad=b"k")
        assert ks.cipher_for("alice").open(token, aad=b"k") == b"v"

    def test_erasure_evicts_cache(self):
        ks = KeyStore()
        ks.cipher_for("alice")
        ks.erase_key("alice")
        with pytest.raises(KeyErasedError):
            ks.cipher_for("alice")
