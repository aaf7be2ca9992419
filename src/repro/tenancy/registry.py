"""Tenant registry: the control plane's source of truth.

A *tenant* is a data controller renting a slice of the GDPR storage
service.  Each tenant owns a namespace (every key and every data-subject
id is qualified with a ``tenant/`` prefix) and a quota (key count, byte
budget, and an ops/s token bucket enforced at the cluster server
boundary).  Compliance policy is not per tenant: every record a store
holds is governed by that store's :class:`~repro.gdpr.store.GDPRConfig`.

The namespace scheme is a plain prefix, deliberately *not* a
``{hash tag}``: a hash tag would pin every key of a tenant to one hash
slot and defeat sharding.  A tenant's keys spread over the cluster like
anyone else's; the boundary is enforced by prefix checks and
prefix-filtered keyspace views, and the GDPR fan-out is bounded because
subjects are qualified the same way (tenant ``acme``'s subject ``alice``
is ``acme/alice`` everywhere: metadata owner, inverted indexes,
per-subject encryption keys -- so crypto-erasure of ``acme/alice`` can
never touch ``globex/alice``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..common.errors import UnknownTenantError

#: Separator between the tenant id and the tenant-local name.  Tenant ids
#: themselves must not contain it.
TENANT_SEP = "/"


def tenant_of(qualified: str) -> Optional[str]:
    """The tenant owning a qualified name (None for unqualified names)."""
    head, sep, _ = qualified.partition(TENANT_SEP)
    return head if sep else None


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource caps, enforced at the server boundary.

    ``None`` disables the corresponding cap.  ``burst`` is the token
    bucket's capacity; it defaults to one second's worth of tokens.
    """

    max_keys: Optional[int] = None
    max_bytes: Optional[int] = None
    ops_per_sec: Optional[float] = None
    burst: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("ops_per_sec", "burst"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"quota {name} must be positive")
        for name in ("max_keys", "max_bytes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"quota {name} must not be negative")

    def bucket_capacity(self) -> Optional[float]:
        if self.ops_per_sec is None:
            return None
        return self.burst if self.burst is not None else self.ops_per_sec


class TokenBucket:
    """A deterministic token bucket driven by simulated-clock time.

    Refill is computed lazily from elapsed clock time, so behaviour is a
    pure function of the event timeline -- byte-identical across runs.
    """

    __slots__ = ("rate", "capacity", "tokens", "_last")

    def __init__(self, rate: float, capacity: float,
                 now: float = 0.0) -> None:
        if rate <= 0 or capacity <= 0:
            raise ValueError("token bucket needs positive rate/capacity")
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self._last = now

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(self.capacity,
                              self.tokens + (now - self._last) * self.rate)
            self._last = now

    def try_take(self, now: float, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; False means *throttle*."""
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class TenantRegistry:
    """tenant id -> :class:`TenantQuota`."""

    def __init__(self) -> None:
        self._quotas: Dict[str, TenantQuota] = {}

    def register(self, tenant: str,
                 quota: Optional[TenantQuota] = None) -> None:
        if TENANT_SEP in tenant or not tenant:
            raise ValueError(
                f"tenant id {tenant!r} must be non-empty and must not "
                f"contain {TENANT_SEP!r}")
        self._quotas[tenant] = quota if quota is not None else TenantQuota()

    def known(self, tenant: str) -> bool:
        return tenant in self._quotas

    def quota_of(self, tenant: str) -> TenantQuota:
        quota = self._quotas.get(tenant)
        if quota is None:
            raise UnknownTenantError(
                f"TENANTUNKNOWN no such tenant {tenant!r}")
        return quota

    def tenants(self) -> List[str]:
        return sorted(self._quotas)
