"""Tests for the key hierarchy and crypto-erasure."""

import pytest

from repro.common.errors import (
    CryptoError,
    IntegrityError,
    KeyErasedError,
    KeyNotFoundError,
)
from repro.crypto.cipher import AuthenticatedCipher
from repro.crypto.keystore import SID_SIZE, KeyStore
from tests.support import py_calls


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

    def test_keys_are_held_by_sid_not_by_name(self):
        ks = KeyStore(master_key=bytes(32))
        ks.create_key("b")
        ks.create_key("a")
        assert sorted(ks._wrapped) == sorted([ks.sid("a"), ks.sid("b")])
        assert len(ks.sid("a")) == SID_SIZE
        assert ks.sid("a") == KeyStore(master_key=bytes(32)).sid("a")
        assert ks.sid("a") != KeyStore(master_key=bytes(31) + b"x").sid("a")

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

    def test_erasure_tombstones_the_sid(self):
        ks = KeyStore()
        ks.create_key("alice")
        ks.erase_key("alice")
        assert ks.is_erased("alice") and not ks.is_erased("bob")
        assert ks._erased == {ks.sid("alice")}


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


class TestSealOpen:
    def test_a_sealed_record_starts_with_its_sid(self):
        ks = KeyStore()
        blob = ks.seal("alice", b"v", b"k")
        assert blob[:SID_SIZE] == ks.sid("alice")
        assert len(blob) == SID_SIZE + AuthenticatedCipher.overhead() + 1
        assert ks.open(blob, b"k") == b"v"

    def test_the_sid_and_the_aad_are_bound(self):
        ks = KeyStore()
        blob = ks.seal("alice", b"v", b"k")
        with pytest.raises(IntegrityError):
            ks.open(blob, b"other")
        ks.create_key("bob")
        with pytest.raises(IntegrityError):
            ks.open(ks.sid("bob") + blob[SID_SIZE:], b"k")

    def test_an_unknown_sid_opens_nothing(self):
        blob = KeyStore().seal("alice", b"v", b"k")
        with pytest.raises(KeyNotFoundError):
            KeyStore().open(blob, b"k")

    def test_a_tombstoned_sid_is_refused_without_an_attempt(self):
        ks = KeyStore()
        blob = ks.seal("alice", b"v", b"k")
        ks.erase_key("alice")
        count = py_calls(lambda: pytest.raises(KeyErasedError, ks.open,
                                               blob, b"k"),
                         watched=[AuthenticatedCipher.open])
        assert count.watched[AuthenticatedCipher.open] == 0
