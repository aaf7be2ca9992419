"""Multi-tenant control plane: namespaces, policies, quotas, metering.

The tenancy layer turns the single GDPR store into a shared *service*:

* :mod:`~repro.tenancy.registry` -- tenant ids, per-tenant compliance
  policies (:class:`TenantPolicy`) and quotas (:class:`TenantQuota`),
  plus the ``tenant/`` namespace helpers;
* :mod:`~repro.tenancy.gate` -- admission control at the cluster server
  boundary (namespace checks, ops/s token buckets, footprint budgets)
  and live usage accounting off the engines' write/deletion streams;
* :mod:`~repro.tenancy.metering` -- periodic per-tenant usage reports
  sealed into a tamper-evident block audit chain;
* :mod:`~repro.tenancy.store` -- a per-tenant view over a (sharded)
  GDPR store that scopes keys, subjects, and every subject right to the
  tenant's namespace.
"""

from .gate import TenantGate, UsageCounters
from .metering import METERING_PRINCIPAL, MeteringPipeline
from .registry import (
    TENANT_SEP,
    TenantPolicy,
    TenantQuota,
    TenantRegistry,
    TokenBucket,
    key_prefix,
    local_name,
    qualify_key,
    qualify_subject,
    tenant_of,
)
from .store import TenantStore

__all__ = [
    "METERING_PRINCIPAL",
    "MeteringPipeline",
    "TENANT_SEP",
    "TenantGate",
    "TenantPolicy",
    "TenantQuota",
    "TenantRegistry",
    "TenantStore",
    "TokenBucket",
    "UsageCounters",
    "key_prefix",
    "local_name",
    "qualify_key",
    "qualify_subject",
    "tenant_of",
]
