"""Fine-grained, dynamic access control (GDPR Art. 25 & 32).

The paper notes Redis "offers no native support for access control"; GDPR
wants access limited to permitted entities, for established purposes, and
for predefined durations.  :class:`AccessController` implements:

* **default deny** -- nothing is permitted without an explicit grant;
* **principals and roles** -- grants attach to either;
* **purpose-scoped grants** -- a processor may be allowed to READ only for
  ``purpose="analytics"``;
* **time-boxed grants** -- every grant may carry an expiry instant, giving
  the "predefined duration of time" requirement;
* **subject self-access** -- a data subject always reaches their own
  records (Art. 15 would be unimplementable otherwise).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from ..common.errors import AccessDeniedError
from .metadata import GDPRMetadata


class Operation(enum.Enum):
    READ = "read"
    WRITE = "write"
    DELETE = "delete"
    EXPORT = "export"
    ADMIN = "admin"


@dataclass(frozen=True)
class Principal:
    """An authenticated actor: a person, service, or the controller."""

    name: str
    roles: FrozenSet[str] = frozenset()
    is_controller: bool = False

    @classmethod
    def controller(cls, name: str = "controller") -> "Principal":
        return cls(name=name, roles=frozenset({"controller"}),
                   is_controller=True)

    @classmethod
    def subject(cls, name: str) -> "Principal":
        """A data subject acting on their own behalf."""
        return cls(name=name, roles=frozenset({"subject"}))


@dataclass(frozen=True)
class Grant:
    """Permission for one operation, optionally purpose- and time-scoped."""

    grantee: str                      # principal name or "role:<name>"
    operation: Operation
    purpose: Optional[str] = None     # None = any purpose
    expires_at: Optional[float] = None

    def matches(self, principal: Principal, operation: Operation,
                purpose: Optional[str], now: float) -> bool:
        if self.operation is not operation:
            return False
        if self.expires_at is not None and now > self.expires_at:
            return False
        if self.purpose is not None and self.purpose != purpose:
            return False
        if self.grantee.startswith("role:"):
            return self.grantee[5:] in principal.roles
        return self.grantee == principal.name


@dataclass
class AccessDecision:
    allowed: bool
    reason: str


class AccessController:
    """Holds grants and renders allow/deny decisions."""

    def __init__(self) -> None:
        self._grants: List[Grant] = []
        self.decisions = 0
        self.denials = 0

    # -- administration ---------------------------------------------------------

    def grant(self, grantee: str, operation: Operation,
              purpose: Optional[str] = None,
              expires_at: Optional[float] = None) -> Grant:
        entry = Grant(grantee=grantee, operation=operation,
                      purpose=purpose, expires_at=expires_at)
        self._grants.append(entry)
        return entry

    @property
    def grant_count(self) -> int:
        return len(self._grants)

    # -- decisions -----------------------------------------------------------------

    def decide(self, principal: Principal, operation: Operation,
               metadata: Optional[GDPRMetadata], purpose: Optional[str],
               now: float) -> AccessDecision:
        """Default-deny decision for an operation against one record."""
        self.decisions += 1
        if principal.is_controller:
            return AccessDecision(True, "controller")
        if (metadata is not None and metadata.owner == principal.name
                and operation in (Operation.READ, Operation.DELETE,
                                  Operation.EXPORT)):
            return AccessDecision(True, "subject self-access")
        for grant in self._grants:
            if grant.matches(principal, operation, purpose, now):
                return AccessDecision(True, f"grant to {grant.grantee}")
        self.denials += 1
        return AccessDecision(
            False, f"no grant allows {principal.name} to "
                   f"{operation.value}"
                   + (f" for purpose {purpose!r}" if purpose else ""))

    def check(self, principal: Principal, operation: Operation,
              metadata: Optional[GDPRMetadata], purpose: Optional[str],
              now: float) -> None:
        """Raise :class:`AccessDeniedError` unless permitted."""
        decision = self.decide(principal, operation, metadata, purpose, now)
        if not decision.allowed:
            raise AccessDeniedError(decision.reason)
