"""Multi-tenant control plane: namespaces, quotas, admission, metering.

The tenancy layer turns the single GDPR store into a shared *service*:

* :mod:`~repro.tenancy.registry` -- tenant ids and their quotas
  (:class:`TenantQuota`), plus the ``tenant/`` namespace helpers;
* :mod:`~repro.tenancy.gate` -- admission control at the cluster server
  boundary (namespace checks, ops/s token buckets, footprint budgets)
  and live usage accounting off the engines' write/deletion streams;
* :mod:`~repro.tenancy.metering` -- periodic per-tenant usage reports
  sealed into a tamper-evident block audit chain.

Compliance policy stays the hosting store's: a tenant's subject rights
are the :mod:`repro.gdpr.rights` functions called with its qualified
subject (``acme/alice``), which reach only that tenant's records.
"""

from .gate import TenantGate, UsageCounters
from .metering import METERING_PRINCIPAL, MeteringPipeline
from .registry import (
    TENANT_SEP,
    TenantQuota,
    TenantRegistry,
    TokenBucket,
    tenant_of,
)

__all__ = [
    "METERING_PRINCIPAL",
    "MeteringPipeline",
    "TENANT_SEP",
    "TenantGate",
    "TenantQuota",
    "TenantRegistry",
    "TokenBucket",
    "UsageCounters",
    "tenant_of",
]
