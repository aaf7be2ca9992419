"""Per-record GDPR metadata and its wire envelope.

Section 3.1 requires storage to track, per item of personal data: the
owning data subject, whitelisted processing purposes, objected purposes
(Art. 21), a time-to-live (Art. 5.1e storage limitation), provenance and
sharing (Art. 15's "recipients to whom it has been disclosed"), and
permitted storage locations (Art. 46).  :class:`GDPRMetadata` carries all
of that; :func:`pack_envelope` / :func:`unpack_envelope` serialize the
metadata together with the user value into the single opaque blob the
underlying key-value store sees.  The metadata is frozen, so its header
is serialised once per object (:attr:`GDPRMetadata.envelope_header`); a
reader that names the metadata it expects gets it back after a prefix
compare, and any other stored header is parsed -- the stored one wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import FrozenSet, Optional, Tuple

from ..common.errors import SerializationError
from .audit import _dumps

_SEPARATOR = b"\x00"


def _string_set(raw: dict, name: str) -> FrozenSet[str]:
    """A set-valued header field: a JSON array of strings and nothing
    else (``frozenset("service")`` is six one-letter purposes)."""
    members = raw.get(name, [])
    if not isinstance(members, list) or not all(
            isinstance(member, str) for member in members):
        raise TypeError(f"{name} must be an array of strings")
    return frozenset(members)


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

    @cached_property
    def envelope_header(self) -> bytes:
        """The canonical JSON header plus ``NUL``: a pure function of the
        frozen fields, derived on first use.  Not a field (``==``, ``repr``
        and ``replace`` never see it); a failure is not remembered."""
        header = _dumps(self.to_dict()).encode("utf-8")
        if _SEPARATOR in header:
            raise SerializationError("metadata header contains NUL")
        return header + _SEPARATOR

    @classmethod
    def from_dict(cls, raw: dict) -> "GDPRMetadata":
        try:
            return cls(
                owner=raw["owner"],
                purposes=_string_set(raw, "purposes"),
                objections=_string_set(raw, "objections"),
                ttl=raw.get("ttl"),
                origin=raw.get("origin", "subject"),
                shared_with=_string_set(raw, "shared_with"),
                allowed_regions=_string_set(raw, "allowed_regions"),
                created_at=raw.get("created_at", 0.0),
                decision_making=raw.get("decision_making", False),
            )
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"bad metadata dict: {exc}") from exc


def pack_envelope(metadata: GDPRMetadata, value: bytes) -> bytes:
    """``<json metadata> NUL <raw value>`` -- the blob the KV store holds."""
    return metadata.envelope_header + value


def unpack_envelope(blob: bytes, expected: Optional[GDPRMetadata] = None
                    ) -> Tuple[GDPRMetadata, bytes]:
    """Split an envelope.  A header cannot contain ``NUL``, so a blob that
    starts with ``expected``'s header and separator carries exactly that
    header; any other blob is parsed, and the stored header wins."""
    if expected is not None and blob.startswith(expected.envelope_header):
        return expected, blob[len(expected.envelope_header):]
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
