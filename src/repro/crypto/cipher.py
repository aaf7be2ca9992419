"""Pure-Python authenticated encryption used for at-rest and in-transit data.

GDPR Art. 32 mandates encryption of personal data; the paper bolts LUKS and
TLS onto Redis.  Nothing cryptographic is importable in this offline
environment beyond :mod:`hashlib`/:mod:`hmac`, so we build a standard
construction from those primitives:

* a **stream cipher** whose keystream is one extendable-output squeeze,
  ``SHAKE-256(key || nonce)`` -- a PRF in stream mode, and one C call
  per record: what a keystream costs the host is its ``hashlib`` calls,
  not its length; and
* **encrypt-then-MAC** with HMAC-SHA256 over
  ``len(aad) || aad || nonce || ciphertext``.

The encryption and MAC sub-keys are derived from the master key under
labels that name the construction (:data:`ENC_LABEL`, :data:`MAC_LABEL`).
The tag covers the ciphertext, not the keystream, so the labels are what
makes a token sealed by any other keystream fail authentication instead
of decrypting to garbage.

This is the textbook generic composition (IND-CPA stream cipher + SUF-CMA
MAC => IND-CCA AE).  It is NOT a vetted primitive suite and exists to
reproduce the *systems cost* of encryption: every byte through the layer
pays a per-byte CPU price, exactly the overhead the paper measures.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import random
import struct

from ..common.errors import CryptoError, IntegrityError

BLOCK_SIZE = 32          # Unit of ``keystream``'s ``start_block`` offset.
NONCE_SIZE = 16
TAG_SIZE = 32
KEY_SIZE = 32

# Sub-key derivation labels of the envelope (see the module docstring).
ENC_LABEL = b"enc-shake256|"
MAC_LABEL = b"mac-shake256|"


# Overridable entropy hook.  os.urandom nonces make ciphertext -- and
# therefore compressed-segment sizes and simulated device timings --
# differ between otherwise identical runs, which breaks the repo's
# same-seed => byte-identical-output guarantee for benchmarks that
# report sizes.  Deterministic runs install a seeded source here.
_entropy_source = None


def random_bytes(n: int) -> bytes:
    """Source of nonces and keys (os.urandom; not clock-dependent)."""
    if _entropy_source is not None:
        return _entropy_source(n)
    return os.urandom(n)


class seeded_entropy:
    """Context manager: route :func:`random_bytes` through a seeded PRNG.

    For deterministic *simulation* runs only -- predictable nonces and
    keys void every security property of the ciphers built on them.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._previous = None

    def __enter__(self) -> "seeded_entropy":
        global _entropy_source
        self._previous = _entropy_source
        _entropy_source = self._rng.randbytes
        return self

    def __exit__(self, *exc_info) -> None:
        global _entropy_source
        _entropy_source = self._previous


class StreamCipher:
    """SHAKE-256 keystream cipher.  Encryption == decryption (XOR)."""

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_SIZE:
            raise CryptoError(f"key must be {KEY_SIZE} bytes, got {len(key)}")
        self._key = key

    def keystream(self, nonce: bytes, length: int,
                  start_block: int = 0) -> bytes:
        """Generate ``length`` keystream bytes for ``nonce``, starting
        ``start_block`` 32-byte blocks into the stream."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(
                f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
        if length < 0 or start_block < 0:
            raise CryptoError(
                "keystream range must be non-negative, got length "
                f"{length} from block {start_block}")
        skip = BLOCK_SIZE * start_block
        return hashlib.shake_256(self._key + nonce).digest(
            skip + length)[skip:]

    def transform(self, data: bytes, nonce: bytes) -> bytes:
        """XOR ``data`` with the keystream for ``nonce``.

        Same bytes as a per-byte XOR of the two buffers, done as one
        big-integer XOR so the byte work runs in C; empty input gives
        ``b""``.
        """
        size = len(data)
        stream = self.keystream(nonce, size)
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(stream, "big")).to_bytes(size, "big")

    encrypt = transform
    decrypt = transform


class AuthenticatedCipher:
    """Encrypt-then-MAC envelope: ``nonce || ciphertext || tag``.

    Separate encryption and MAC keys are derived from the master key so a
    single 32-byte key configures the whole envelope.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_SIZE:
            raise CryptoError(f"key must be {KEY_SIZE} bytes, got {len(key)}")
        self._cipher = StreamCipher(hashlib.sha256(ENC_LABEL + key).digest())
        # Keyed once; every tag starts from a copy of this state.
        self._mac = hmac.new(hashlib.sha256(MAC_LABEL + key).digest(),
                             digestmod=hashlib.sha256)

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(struct.pack(">I", len(aad)))
        mac.update(aad)
        mac.update(nonce)
        mac.update(ciphertext)
        return mac.digest()

    def seal(self, plaintext: bytes, aad: bytes = b"",
             nonce: bytes = None) -> bytes:
        """Encrypt and authenticate ``plaintext`` (binding ``aad``)."""
        if nonce is None:
            nonce = random_bytes(NONCE_SIZE)
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(
                f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
        ciphertext = self._cipher.transform(plaintext, nonce)
        return nonce + ciphertext + self._tag(nonce, aad, ciphertext)

    def open(self, token: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt a sealed token; raises IntegrityError."""
        if len(token) < NONCE_SIZE + TAG_SIZE:
            raise IntegrityError("token too short to be authentic")
        nonce = token[:NONCE_SIZE]
        ciphertext = token[NONCE_SIZE:-TAG_SIZE]
        tag = token[-TAG_SIZE:]
        expected = self._tag(nonce, aad, ciphertext)
        if not hmac.compare_digest(tag, expected):
            raise IntegrityError("authentication tag mismatch")
        return self._cipher.transform(ciphertext, nonce)

    @staticmethod
    def overhead() -> int:
        """Bytes added per sealed message."""
        return NONCE_SIZE + TAG_SIZE
