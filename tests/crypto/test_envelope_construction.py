"""The envelope's construction, pinned: SHAKE-256 keystream, labelled
sub-keys, and tokens of the construction it replaced failing closed.

Up to PR 19 the keystream was ``SHA-256(key || nonce || counter)`` per 32
bytes under the labels ``enc|`` / ``mac|``.  The MAC covers the
ciphertext, not the keystream, so with unchanged labels an old token
would still authenticate and then decrypt to garbage; the literals below
were sealed by that construction and must be refused.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CryptoError, IntegrityError
from repro.crypto.cipher import (KEY_SIZE, NONCE_SIZE, AuthenticatedCipher,
                                 StreamCipher)

KEY = bytes(range(32))
ZERO_NONCE = bytes(NONCE_SIZE)

keys32 = st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE)
nonces = st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE)


# -- known answers ----------------------------------------------------------------

def test_keystream_known_answer():
    assert StreamCipher(KEY).keystream(ZERO_NONCE, 40).hex() == (
        "6a0fa65ecb6965951b2c385ec8ab0ed5ed49b7de7bb817c9a190d9a61fc589c7"
        "a7bb2beab4c6deb7")


def test_sealed_token_known_answer():
    cipher = AuthenticatedCipher(KEY)
    token = cipher.seal(b"personal-data", aad=b"user1", nonce=ZERO_NONCE)
    assert token.hex() == (
        "00000000000000000000000000000000"                    # nonce
        "668adde59cfb579b6c1e8c3ca8"                          # ciphertext
        "dd6e828d8e61e908dbd568356dfe704eb1ce63d2a7032ff2566c3ffc6f68e3d1")
    assert cipher.open(token, aad=b"user1") == b"personal-data"


@settings(max_examples=60)
@given(keys32, nonces, st.integers(0, 10_000))
def test_keystream_is_one_shake256_squeeze(key, nonce, length):
    assert StreamCipher(key).keystream(nonce, length) == \
        hashlib.shake_256(key + nonce).digest(length)


@given(keys32, nonces, st.integers(0, 400), st.integers(0, 400),
       st.integers(0, 12))
def test_keystream_prefix_and_block_offset(key, nonce, length, shorter,
                                           block):
    cipher = StreamCipher(key)
    stream = cipher.keystream(nonce, length)
    shorter = min(shorter, length)
    assert stream[:shorter] == cipher.keystream(nonce, shorter)
    assert cipher.keystream(nonce, length, start_block=block) == \
        cipher.keystream(nonce, 32 * block + length)[32 * block:]


# -- nonsense ranges --------------------------------------------------------------

@pytest.mark.parametrize("length, start_block",
                         [(-5, 0), (8, -1), (-1, -1), (0, -3)])
def test_keystream_rejects_negative_ranges(length, start_block):
    with pytest.raises(CryptoError):
        StreamCipher(KEY).keystream(ZERO_NONCE, length,
                                    start_block=start_block)


def test_empty_ranges_stay_empty():
    cipher = StreamCipher(KEY)
    assert cipher.keystream(ZERO_NONCE, 0) == b""
    assert cipher.keystream(ZERO_NONCE, 0, start_block=7) == b""
    assert cipher.transform(b"", ZERO_NONCE) == b""


# -- tokens of the previous construction fail closed ------------------------------

# AuthenticatedCipher(KEY).seal(b"personal-data", aad=b"user1",
# nonce=bytes(16)) as recorded at ae89f05, the parent of PR 19.
OLD_TOKEN = bytes.fromhex(
    "00000000000000000000000000000000"
    "8fb288e1e04e33ea653a1d60b4"
    "433c664182ec017ea15ed25c5a7fbca614d91521634d0a3b6491e4a8d24ed92d")


def test_token_sealed_by_the_old_construction_is_refused():
    with pytest.raises(IntegrityError):
        AuthenticatedCipher(KEY).open(OLD_TOKEN, aad=b"user1")
