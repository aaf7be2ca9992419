"""Key hierarchy with per-subject data keys and crypto-erasure.

The GDPR layer encrypts each data subject's values under a **per-subject
data key**, wrapped by a master key.  Destroying a subject's data key makes
every ciphertext encrypted under it unrecoverable -- *crypto-erasure* --
which is the standard systems answer to Art. 17's requirement that erasure
reach replicas and backups that are expensive to rewrite (the paper's AOF
persistence concern in section 4.3).

The keystore names each subject by a **sid**: the first :data:`SID_SIZE`
bytes of HMAC-SHA256 of the subject's name, under a key derived from the
master key with a label of its own (:data:`SID_LABEL`).  Wrapped keys,
cipher contexts and tombstones are keyed by sid, with no table back to
names, so the keystore keeps no erased subject's name.  A record sealed
by :meth:`KeyStore.seal` is ``sid || nonce || ciphertext || tag``, the
sid bound into the tag's associated data, so :meth:`KeyStore.open` is
the one place that decides which key opens a record: the sid names it,
and one AEAD attempt follows -- or none, for a tombstoned sid.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, Optional, Set

from ..common.errors import CryptoError, KeyErasedError, KeyNotFoundError
from .cipher import KEY_SIZE, AuthenticatedCipher, random_bytes

SID_SIZE = 16
SID_LABEL = b"sid-hmac-sha256|"


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
        self._sid_mac = hmac.new(hashlib.sha256(SID_LABEL + master_key)
                                 .digest(), digestmod=hashlib.sha256)
        self._wrapped: Dict[bytes, bytes] = {}
        self._erased: Set[bytes] = set()
        # Cipher contexts are stateless (fresh nonce per seal), so one
        # instance per sid is safe to reuse -- unwrapping the master
        # key and re-deriving the enc/mac subkeys on every data-path op
        # is pure hot-path waste.  Invalidated on erasure.
        self._cipher_cache: Dict[bytes, AuthenticatedCipher] = {}

    def sid(self, subject: str) -> bytes:
        """The subject's id: the keystore's only name for them."""
        mac = self._sid_mac.copy()
        mac.update(subject.encode("utf-8"))
        return mac.digest()[:SID_SIZE]

    # -- key lifecycle -------------------------------------------------------

    def create_key(self, subject: str) -> bytes:
        """Create (or return the existing) data key for ``subject``; an
        erased subject's key is never recreated (KeyErasedError)."""
        sid = self.sid(subject)
        if sid not in self._wrapped and sid not in self._erased:
            self._wrapped[sid] = self._master.seal(random_bytes(KEY_SIZE),
                                                   aad=sid)
        return self._unwrap(sid)

    def get_key(self, subject: str) -> bytes:
        """Unwrap and return the data key for ``subject``."""
        return self._unwrap(self.sid(subject))

    def _unwrap(self, sid: bytes) -> bytes:
        if sid in self._erased:
            raise KeyErasedError("the subject's key was crypto-erased")
        wrapped = self._wrapped.get(sid)
        if wrapped is None:
            raise KeyNotFoundError(f"no key with sid {sid.hex()}")
        return self._master.open(wrapped, aad=sid)

    def cipher_for(self, subject: str,
                   create: bool = True) -> AuthenticatedCipher:
        """Authenticated cipher bound to ``subject``'s data key (cached)."""
        return self._cipher(self.sid(subject), subject if create else None)

    def _cipher(self, sid: bytes,
                create_for: Optional[str] = None) -> AuthenticatedCipher:
        """The cached cipher of ``sid``'s key, which is created first for
        ``create_for`` (the subject ``sid`` names) if it has none."""
        cipher = self._cipher_cache.get(sid)
        if cipher is None:
            key = (self._unwrap(sid) if create_for is None
                   else self.create_key(create_for))
            cipher = self._cipher_cache[sid] = AuthenticatedCipher(key)
        return cipher

    def erase_key(self, subject: str) -> bool:
        """Crypto-erase: destroy the wrapped key, tombstone the sid.

        Returns True if a key was destroyed.  After erasure every
        ciphertext under this key is permanently unreadable, including
        copies in logs, snapshots, and backups.
        """
        sid = self.sid(subject)
        existed = self._wrapped.pop(sid, None) is not None
        self._cipher_cache.pop(sid, None)
        self._erased.add(sid)
        return existed

    # -- records ---------------------------------------------------------------

    def seal(self, subject: str, plaintext: bytes, aad: bytes) -> bytes:
        """``sid || token``: ``plaintext`` sealed under ``subject``'s key
        (created on first use), binding the sid and ``aad``."""
        sid = self.sid(subject)
        return sid + self._cipher(sid, subject).seal(plaintext,
                                                     aad=sid + aad)

    def open(self, blob: bytes, aad: bytes) -> bytes:
        """The plaintext of a :meth:`seal` blob: one AEAD attempt, with
        the key its sid names.  KeyErasedError, with no attempt, when the
        sid is tombstoned; KeyNotFoundError when no key has it;
        IntegrityError when the token fails authentication."""
        sid = blob[:SID_SIZE]
        return self._cipher(sid).open(blob[SID_SIZE:], aad=sid + aad)

    # -- introspection ---------------------------------------------------------

    def __contains__(self, subject: str) -> bool:
        return self.sid(subject) in self._wrapped

    def is_erased(self, subject: str) -> bool:
        return self.sid(subject) in self._erased
