"""Key hierarchy with per-subject data keys and crypto-erasure.

The GDPR layer encrypts each data subject's values under a **per-subject
data key**, wrapped by a master key.  Destroying a subject's data key makes
every ciphertext encrypted under it unrecoverable -- *crypto-erasure* --
which is the standard systems answer to Art. 17's requirement that erasure
reach replicas and backups that are expensive to rewrite (the paper's AOF
persistence concern in section 4.3).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..common.errors import CryptoError, KeyErasedError, KeyNotFoundError
from .cipher import KEY_SIZE, AuthenticatedCipher, random_bytes


class KeyStore:
    """Manages wrapped per-subject keys under one master key.

    The keystore and its tombstones are the one key authority: no copy of
    a wrapped key leaves it, since a copy that outlived its subject's
    erasure would let the master key reopen the subject's data.
    """

    def __init__(self, master_key: Optional[bytes] = None) -> None:
        if master_key is None:
            master_key = random_bytes(KEY_SIZE)
        if len(master_key) != KEY_SIZE:
            raise CryptoError(
                f"master key must be {KEY_SIZE} bytes, got {len(master_key)}")
        self._master = AuthenticatedCipher(master_key)
        self._wrapped: Dict[str, bytes] = {}
        self._erased: set = set()
        # Cipher contexts are stateless (fresh nonce per seal), so one
        # instance per key id is safe to reuse -- unwrapping the master
        # key and re-deriving the enc/mac subkeys on every data-path op
        # is pure hot-path waste.  Invalidated on erasure.
        self._cipher_cache: Dict[str, AuthenticatedCipher] = {}

    # -- key lifecycle -------------------------------------------------------

    def create_key(self, key_id: str) -> bytes:
        """Create (or return the existing) data key for ``key_id``."""
        if key_id in self._erased:
            raise KeyErasedError(
                f"key {key_id!r} was erased and cannot be recreated "
                "under the same id")
        if key_id in self._wrapped:
            return self.get_key(key_id)
        data_key = random_bytes(KEY_SIZE)
        self._wrapped[key_id] = self._master.seal(
            data_key, aad=key_id.encode("utf-8"))
        return data_key

    def get_key(self, key_id: str) -> bytes:
        """Unwrap and return the data key for ``key_id``."""
        if key_id in self._erased:
            raise KeyErasedError(f"key {key_id!r} was crypto-erased")
        wrapped = self._wrapped.get(key_id)
        if wrapped is None:
            raise KeyNotFoundError(f"no key with id {key_id!r}")
        return self._master.open(wrapped, aad=key_id.encode("utf-8"))

    def cipher_for(self, key_id: str,
                   create: bool = True) -> AuthenticatedCipher:
        """Authenticated cipher bound to ``key_id``'s data key (cached)."""
        if key_id in self._erased:
            raise KeyErasedError(f"key {key_id!r} was crypto-erased")
        cipher = self._cipher_cache.get(key_id)
        if cipher is not None:
            return cipher
        if create and key_id not in self._wrapped:
            self.create_key(key_id)
        cipher = AuthenticatedCipher(self.get_key(key_id))
        self._cipher_cache[key_id] = cipher
        return cipher

    def erase_key(self, key_id: str) -> bool:
        """Crypto-erase: destroy the wrapped key, tombstone the id.

        Returns True if a key was destroyed.  After erasure every
        ciphertext under this key is permanently unreadable, including
        copies in logs, snapshots, and backups.
        """
        existed = self._wrapped.pop(key_id, None) is not None
        self._cipher_cache.pop(key_id, None)
        self._erased.add(key_id)
        return existed

    # -- introspection ---------------------------------------------------------

    def __contains__(self, key_id: str) -> bool:
        return key_id in self._wrapped

    def key_ids(self) -> Iterable[str]:
        return sorted(self._wrapped)

    def erased_ids(self) -> Iterable[str]:
        return sorted(self._erased)
