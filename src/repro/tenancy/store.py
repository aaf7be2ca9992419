"""Tenant-scoped view over a GDPR store (single-node or sharded).

A :class:`TenantStore` gives one tenant the illusion of a private GDPR
store: keys, data subjects, and therefore every derived artifact
(inverted indexes, per-subject encryption keys, audit subjects, rights
fan-out) are qualified with the tenant's namespace prefix on the way in
and stripped on the way out.  Because the *subject* is qualified --
``acme``'s ``alice`` is ``acme/alice`` -- the GDPR machinery needs no
tenant awareness at all:

* Art. 15/20/21 iterate ``keys_of_subject("acme/alice")``, which can
  only ever name ``acme``'s records;
* Art. 17 crypto-erasure destroys the ``acme/alice`` data key in the
  shared keystore, voiding that tenant's ciphertexts on every shard,
  replica, AOF, and cold segment -- and nobody else's, because
  ``globex/alice`` seals under a different key.

The view wraps either a :class:`~repro.gdpr.store.GDPRStore` or a
:class:`~repro.cluster.gdpr_client.GDPRClient` over a cluster of GDPR
shards; its rights are the :mod:`repro.gdpr.rights` functions called on
the base with the tenant-qualified subject, which serve both.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..gdpr.access_control import Principal
from ..gdpr.metadata import GDPRMetadata, Record
from ..gdpr.rights import (
    right_of_access,
    right_to_erasure,
    right_to_object,
    right_to_portability,
)
from .registry import key_prefix, qualify_key, qualify_subject


class TenantStore:
    """One tenant's window onto a shared GDPR store."""

    def __init__(self, base, tenant: str) -> None:
        self.base = base
        self.tenant = tenant
        self._prefix = key_prefix(tenant)

    # -- namespace ---------------------------------------------------------

    def _key(self, key: str) -> str:
        return qualify_key(self.tenant, key)

    def _subject(self, subject: str) -> str:
        return qualify_subject(self.tenant, subject)

    def _qualify_metadata(self, metadata: GDPRMetadata) -> GDPRMetadata:
        if metadata.owner.startswith(self._prefix):
            return metadata
        return dataclasses.replace(
            metadata, owner=self._subject(metadata.owner))

    def _strip(self, qualified: str) -> str:
        if qualified.startswith(self._prefix):
            return qualified[len(self._prefix):]
        return qualified

    # -- data path ---------------------------------------------------------

    def put(self, key: str, value: bytes, metadata: GDPRMetadata,
            principal: Optional[Principal] = None,
            purpose: Optional[str] = None) -> None:
        metadata = self._qualify_metadata(metadata)
        if principal is None:
            self.base.put(self._key(key), value, metadata, purpose=purpose)
        else:
            self.base.put(self._key(key), value, metadata,
                          principal=principal, purpose=purpose)

    def get(self, key: str, principal: Optional[Principal] = None,
            purpose: Optional[str] = None) -> Record:
        if principal is None:
            record = self.base.get(self._key(key), purpose=purpose)
        else:
            record = self.base.get(self._key(key), principal=principal,
                                   purpose=purpose)
        return Record(key=self._strip(record.key), value=record.value,
                      metadata=record.metadata)

    def delete(self, key: str,
               principal: Optional[Principal] = None) -> bool:
        if principal is None:
            return self.base.delete(self._key(key))
        return self.base.delete(self._key(key), principal=principal)

    # -- keyspace ----------------------------------------------------------

    def keys(self) -> List[str]:
        """Tenant-local names of every live key (prefix-scoped KEYS)."""
        prefix = self._prefix
        return sorted({key.decode("utf-8", "replace")[len(prefix):]
                       for key in self.base.live_keys_with_prefix(prefix)})

    def key_count(self) -> int:
        return len(self.keys())

    def keys_of_subject(self, subject: str) -> List[str]:
        return sorted(self._strip(key) for key in
                      self.base.keys_of_subject(self._subject(subject)))

    def subject_exists(self, subject: str) -> bool:
        return self.base.subject_exists(self._subject(subject))

    # -- subject rights, tenant-bounded ------------------------------------

    def access_report(self, subject: str,
                      principal: Optional[Principal] = None):
        """Art. 15, bounded to this tenant's records of ``subject``."""
        return right_of_access(self.base, self._subject(subject),
                               principal=principal)

    def erase_subject(self, subject: str,
                      principal: Optional[Principal] = None):
        """Art. 17: erase *this tenant's* ``subject`` -- one keyspace DEL,
        crypto-erasure of the tenant-qualified data key, archive
        tombstones -- leaving same-named subjects of other tenants
        untouched."""
        return right_to_erasure(self.base, self._subject(subject),
                                principal=principal)

    def export_subject(self, subject: str, fmt: str = "json",
                       principal: Optional[Principal] = None) -> bytes:
        """Art. 20 over this tenant's records only."""
        return right_to_portability(self.base, self._subject(subject),
                                    fmt=fmt, principal=principal)

    def object_to_purpose(self, subject: str, purpose: str,
                          principal: Optional[Principal] = None) -> int:
        """Art. 21 over this tenant's records only."""
        return right_to_object(self.base, self._subject(subject), purpose,
                               principal=principal)
