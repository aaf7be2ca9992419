"""Cryptographic building blocks: AE cipher and key hierarchy."""

from .cipher import (
    KEY_SIZE,
    NONCE_SIZE,
    TAG_SIZE,
    AuthenticatedCipher,
    StreamCipher,
    random_bytes,
    seeded_entropy,
)
from .keystore import KeyStore

__all__ = [
    "KEY_SIZE",
    "NONCE_SIZE",
    "TAG_SIZE",
    "AuthenticatedCipher",
    "StreamCipher",
    "random_bytes",
    "seeded_entropy",
    "KeyStore",
]
