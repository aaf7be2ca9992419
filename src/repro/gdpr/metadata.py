"""Per-record GDPR metadata and its wire envelope.

Section 3.1 requires storage to track, per item of personal data: the
owning data subject, whitelisted processing purposes, objected purposes
(Art. 21), a time-to-live (Art. 5.1e storage limitation), provenance and
sharing (Art. 15's "recipients to whom it has been disclosed"), and
permitted storage locations (Art. 46).  :class:`GDPRMetadata` carries all
of that; :func:`pack_envelope` / :func:`unpack_envelope` serialize the
metadata together with the user value into the single opaque blob the
underlying key-value store sees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Optional, Tuple

from ..common.errors import SerializationError
from .audit import _dumps

_SEPARATOR = b"\x00"


@dataclass(frozen=True)
class GDPRMetadata:
    """Immutable metadata attached to one stored record."""

    owner: str
    purposes: FrozenSet[str] = frozenset()
    objections: FrozenSet[str] = frozenset()
    ttl: Optional[float] = None            # seconds from creation; None = none
    origin: str = "subject"                # where the data came from
    shared_with: FrozenSet[str] = frozenset()
    allowed_regions: FrozenSet[str] = frozenset()  # empty = anywhere
    created_at: float = 0.0
    decision_making: bool = False          # used in automated decisions (Art 15)

    def __post_init__(self) -> None:
        if not self.owner:
            raise ValueError("metadata must name an owning data subject")
        overlap = self.purposes & self.objections
        if overlap:
            raise ValueError(
                f"purposes also listed as objections: {sorted(overlap)}")
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError("ttl must be positive (or None)")

    # -- purpose logic (Art. 5.1, Art. 21) -------------------------------------

    def allows_purpose(self, purpose: str) -> bool:
        """Whitelist + blacklist check: the purpose must be declared and
        must not have been objected to."""
        return purpose in self.purposes and purpose not in self.objections

    def with_objection(self, purpose: str) -> "GDPRMetadata":
        """A copy with ``purpose`` objected (Art. 21 exercise)."""
        return replace(self,
                       objections=self.objections | {purpose},
                       purposes=self.purposes - {purpose})

    def with_shared(self, recipient: str) -> "GDPRMetadata":
        return replace(self, shared_with=self.shared_with | {recipient})

    def expire_at(self) -> Optional[float]:
        if self.ttl is None:
            return None
        return self.created_at + self.ttl

    # -- serialization --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "owner": self.owner,
            "purposes": sorted(self.purposes),
            "objections": sorted(self.objections),
            "ttl": self.ttl,
            "origin": self.origin,
            "shared_with": sorted(self.shared_with),
            "allowed_regions": sorted(self.allowed_regions),
            "created_at": self.created_at,
            "decision_making": self.decision_making,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "GDPRMetadata":
        try:
            return cls(
                owner=raw["owner"],
                purposes=frozenset(raw.get("purposes", ())),
                objections=frozenset(raw.get("objections", ())),
                ttl=raw.get("ttl"),
                origin=raw.get("origin", "subject"),
                shared_with=frozenset(raw.get("shared_with", ())),
                allowed_regions=frozenset(raw.get("allowed_regions", ())),
                created_at=raw.get("created_at", 0.0),
                decision_making=raw.get("decision_making", False),
            )
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"bad metadata dict: {exc}") from exc


def pack_envelope(metadata: GDPRMetadata, value: bytes) -> bytes:
    """``<json metadata> NUL <raw value>`` -- the blob the KV store holds."""
    header = _dumps(metadata.to_dict()).encode("utf-8")
    if _SEPARATOR in header:
        raise SerializationError("metadata header contains NUL")
    return header + _SEPARATOR + value


def unpack_envelope(blob: bytes) -> Tuple[GDPRMetadata, bytes]:
    header, sep, value = blob.partition(_SEPARATOR)
    if not sep:
        raise SerializationError("envelope missing metadata separator")
    try:
        raw = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt metadata header: {exc}") from exc
    return GDPRMetadata.from_dict(raw), value


@dataclass(frozen=True)
class Record:
    """A decoded record as returned to callers of the GDPR store."""

    key: str
    value: bytes
    metadata: GDPRMetadata = field(compare=False)
