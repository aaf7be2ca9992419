"""Tenant admission control at the server boundary.

One :class:`TenantGate` fronts a whole cluster: every
:class:`~repro.cluster.client.ClusterStoreServer` consults it before
executing a tenant-stamped request.  The gate enforces, in order:

1. **Namespace** -- every key the command touches must live inside the
   requesting tenant's prefix (``TENANTDENIED`` otherwise).  The check
   runs on the shard serving the request, so a malicious client cannot
   dodge it by routing creatively.
2. **Rate** -- a per-tenant token bucket over simulated clock time caps
   ops/s (``QUOTAEXCEEDED``).  Rejected requests never reach the engine,
   so a throttled tenant costs the shard only the admission check --
   that asymmetry is what protects well-behaved neighbours.
3. **Footprint** -- key-count and byte budgets checked against live
   usage before a write lands (``QUOTAEXCEEDED``).

Usage is tracked from the engines' *effective-write* and *deletion*
streams rather than the request path, so expirations, GDPR erasures,
migration cascades, and even direct ``store.execute`` writes (bench
preloads) keep the meters honest.  The same counters feed the
:class:`~repro.tenancy.metering.MeteringPipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..common.clock import Clock
from ..common.errors import QuotaExceededError, TenantAccessError
from .registry import TENANT_SEP, TenantRegistry, TokenBucket, tenant_of


@dataclass
class UsageCounters:
    """Cumulative per-tenant traffic counters (monotonic)."""

    ops: int = 0
    read_ops: int = 0
    write_ops: int = 0
    bytes_in: int = 0
    throttled: int = 0
    denied: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {"ops": self.ops, "read_ops": self.read_ops,
                "write_ops": self.write_ops, "bytes_in": self.bytes_in,
                "throttled": self.throttled, "denied": self.denied}


@dataclass
class _TenantUsage:
    """Live footprint: what the tenant is storing right now."""

    sizes: Dict[bytes, int] = field(default_factory=dict)
    bytes_used: int = 0
    counters: UsageCounters = field(default_factory=UsageCounters)


class TenantGate:
    """Admission control + usage accounting for one cluster."""

    def __init__(self, registry: TenantRegistry, clock: Clock) -> None:
        self.registry = registry
        self.clock = clock
        self._usage: Dict[str, _TenantUsage] = {}
        self._buckets: Dict[str, Optional[TokenBucket]] = {}

    # -- wiring ------------------------------------------------------------

    def watch_store(self, store) -> None:
        """Subscribe to a primary's write/deletion streams so footprint
        meters track every path a key can appear or vanish through."""
        store.add_write_listener(self._on_write)
        store.add_deletion_listener(self._on_deletion)

    # -- admission ---------------------------------------------------------

    def admit(self, tenant: str, spec, argv: List[bytes],
              keys: List[bytes], now: float) -> None:
        """Gate one request (``spec``: its command-table entry, which
        says whether it is billed and footprint-checked as a write);
        raises on namespace or quota violations.

        Raising here happens *before* the engine sees the command; the
        serve path converts the error to an unprefixed RESP error
        (``TENANTDENIED`` / ``QUOTAEXCEEDED`` / ``TENANTUNKNOWN``).
        """
        entry = self.registry.require(tenant)
        usage = self._usage_of(tenant)
        prefix = (tenant + TENANT_SEP).encode("utf-8")
        for key in keys:
            if not key.startswith(prefix):
                usage.counters.denied += 1
                raise TenantAccessError(
                    f"TENANTDENIED key {key.decode('utf-8', 'replace')!r}"
                    f" is outside tenant {tenant!r}")
        bucket = self._bucket_of(tenant, now)
        if bucket is not None and not bucket.try_take(now):
            usage.counters.throttled += 1
            raise QuotaExceededError(
                f"QUOTAEXCEEDED tenant {tenant!r} over its "
                f"{entry.quota.ops_per_sec:g} ops/s quota")
        if spec.write:
            self._check_footprint(tenant, entry.quota, usage, spec.name,
                                  argv)
        usage.counters.ops += 1
        if spec.write:
            usage.counters.write_ops += 1
        else:
            usage.counters.read_ops += 1
        usage.counters.bytes_in += sum(len(part) for part in argv)

    def _check_footprint(self, tenant: str, quota, usage: _TenantUsage,
                         name: bytes, argv: List[bytes]) -> None:
        """Reject a write that would blow the key/byte budget.  Only
        SET-shaped writes can grow the footprint; deletes always pass."""
        if name not in (b"SET", b"SETNX", b"SETEX", b"PSETEX", b"MSET",
                        b"APPEND", b"GETSET", b"RESTORE"):
            return
        if quota.max_keys is None and quota.max_bytes is None:
            return
        if name == b"MSET":
            writes = [(argv[i], argv[i + 1])
                      for i in range(1, len(argv) - 1, 2)]
        elif name in (b"SETEX", b"PSETEX") and len(argv) >= 4:
            writes = [(argv[1], argv[3])]
        else:
            writes = [(argv[1], argv[2])] if len(argv) >= 3 else []
        new_keys = sum(1 for key, _ in writes if key not in usage.sizes)
        if quota.max_keys is not None \
                and len(usage.sizes) + new_keys > quota.max_keys:
            usage.counters.denied += 1
            raise QuotaExceededError(
                f"QUOTAEXCEEDED tenant {tenant!r} at its "
                f"{quota.max_keys} key quota")
        if quota.max_bytes is not None:
            delta = sum(
                (len(value) if name == b"APPEND" else
                 len(value) - usage.sizes.get(key, 0))
                for key, value in writes)
            if usage.bytes_used + delta > quota.max_bytes:
                usage.counters.denied += 1
                raise QuotaExceededError(
                    f"QUOTAEXCEEDED tenant {tenant!r} over its "
                    f"{quota.max_bytes} byte quota")

    # -- usage tracking (engine listeners) ---------------------------------

    def _on_write(self, db_index: int, argv: List[bytes]) -> None:
        name = argv[0].upper()
        if name in (b"SET", b"SETNX") and len(argv) >= 3:
            self._record_stored(argv[1], len(argv[2]))
        elif name in (b"SETEX", b"PSETEX") and len(argv) >= 4:
            self._record_stored(argv[1], len(argv[3]))
        elif name == b"MSET":
            for i in range(1, len(argv) - 1, 2):
                self._record_stored(argv[i], len(argv[i + 1]))
        elif name == b"APPEND" and len(argv) >= 3:
            key = argv[1]
            tenant = tenant_of(key.decode("utf-8", "replace"))
            if tenant is not None and self.registry.known(tenant):
                usage = self._usage_of(tenant)
                usage.sizes[key] = usage.sizes.get(key, 0) + len(argv[2])
                usage.bytes_used += len(argv[2])
        elif name == b"RESTORE" and len(argv) >= 4:
            self._record_stored(argv[1], len(argv[3]))

    def _record_stored(self, key: bytes, size: int) -> None:
        tenant = tenant_of(key.decode("utf-8", "replace"))
        if tenant is None or not self.registry.known(tenant):
            return
        usage = self._usage_of(tenant)
        usage.bytes_used += size - usage.sizes.get(key, 0)
        usage.sizes[key] = size

    def _on_deletion(self, db_index: int, key: bytes, reason: str,
                     when: float) -> None:
        if reason == "demote":
            # A tier move, not an erasure: the record is still the
            # tenant's footprint (promote-on-read serves it back).
            return
        tenant = tenant_of(key.decode("utf-8", "replace"))
        if tenant is None:
            return
        usage = self._usage.get(tenant)
        if usage is None:
            return
        size = usage.sizes.pop(key, None)
        if size is not None:
            usage.bytes_used -= size

    # -- views -------------------------------------------------------------

    def _usage_of(self, tenant: str) -> _TenantUsage:
        usage = self._usage.get(tenant)
        if usage is None:
            usage = self._usage[tenant] = _TenantUsage()
        return usage

    def _bucket_of(self, tenant: str, now: float) -> Optional[TokenBucket]:
        if tenant not in self._buckets:
            quota = self.registry.quota_of(tenant)
            capacity = quota.bucket_capacity()
            self._buckets[tenant] = (
                TokenBucket(quota.ops_per_sec, capacity, now=now)
                if capacity is not None else None)
        return self._buckets[tenant]

    def counters_of(self, tenant: str) -> UsageCounters:
        return self._usage_of(tenant).counters

    def key_count(self, tenant: str) -> int:
        return len(self._usage_of(tenant).sizes)

    def bytes_used(self, tenant: str) -> int:
        return self._usage_of(tenant).bytes_used
