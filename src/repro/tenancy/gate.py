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
preloads) keep the meters honest.  A key is metered once, by name,
across every watched shard: a slot migration's copy on the target
leaves it held, and the source's handoff delete does not release it.
The same counters feed the
:class:`~repro.tenancy.metering.MeteringPipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..common.clock import Clock
from ..common.errors import (
    CorruptionError, QuotaExceededError, TenantAccessError)
from ..kvstore.commands import spec_of
from ..kvstore.snapshot import load_value
from .registry import TENANT_SEP, TenantRegistry, TokenBucket, tenant_of


def _stored_size(name: bytes, argv: List[bytes], held: int) -> int:
    """The metered bytes of the key a write names first, once the write
    lands: a string payload's length -- what SET stores, what APPEND
    adds to ``held``, what a RESTORE payload holds.  A write that carries
    no string payload (INCR, HSET, ZADD, ...) leaves ``held`` as it was."""
    if len(argv) < 3:
        return held
    if name == b"SET":
        return len(argv[2])
    if name == b"APPEND":
        return held + len(argv[2])
    if name == b"RESTORE" and len(argv) > 3:
        try:
            value = load_value(argv[3])
        except CorruptionError:
            return held
        return len(value) if isinstance(value, bytes) else held
    return held


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
        self._stores: List = []

    # -- wiring ------------------------------------------------------------

    def watch_store(self, store) -> None:
        """Subscribe to a primary's write/deletion streams so footprint
        meters track every path a key can appear or vanish through."""
        self._stores.append(store)
        store.add_write_listener(
            lambda db_index, record: self._on_write(store, db_index, record))
        store.add_deletion_listener(
            lambda db_index, key, reason, when: self._on_deletion(
                store, db_index, key, reason, when))

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
        quota = self.registry.quota_of(tenant)
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
                f"{quota.ops_per_sec:g} ops/s quota")
        if spec.write:
            self._check_footprint(tenant, quota, usage, spec.name,
                                  argv, keys)
        usage.counters.ops += 1
        if spec.write:
            usage.counters.write_ops += 1
        else:
            usage.counters.read_ops += 1
        usage.counters.bytes_in += sum(len(part) for part in argv)

    def _check_footprint(self, tenant: str, quota, usage: _TenantUsage,
                         name: bytes, argv: List[bytes],
                         keys: List[bytes]) -> None:
        """Reject a write that would blow the key/byte budget.  Any write
        may create the keys it names that the tenant does not hold yet,
        except a delete, which always passes."""
        if quota.max_keys is None and quota.max_bytes is None:
            return
        if name in (b"DEL", b"UNLINK"):
            return
        new_keys = len(set(keys).difference(usage.sizes))
        if quota.max_keys is not None \
                and len(usage.sizes) + new_keys > quota.max_keys:
            usage.counters.denied += 1
            raise QuotaExceededError(
                f"QUOTAEXCEEDED tenant {tenant!r} at its "
                f"{quota.max_keys} key quota")
        if quota.max_bytes is not None and keys:
            held = usage.sizes.get(keys[0], 0)
            delta = _stored_size(name, argv, held) - held
            if usage.bytes_used + delta > quota.max_bytes:
                usage.counters.denied += 1
                raise QuotaExceededError(
                    f"QUOTAEXCEEDED tenant {tenant!r} over its "
                    f"{quota.max_bytes} byte quota")

    # -- usage tracking (engine listeners) ---------------------------------

    def _on_write(self, store, db_index: int, record: List[bytes]) -> None:
        """Meter a write by its effect: every key it names that ``store``
        serves afterwards is held (a key it removed -- a DEL, an HDEL of
        the last field -- is the deletion stream's business)."""
        name = record[0].upper()
        for key in spec_of(name).keys(record):
            usage = self._usage_of_key(key)
            if usage is None or not store.has_live_key(key, db_index):
                continue
            held = usage.sizes.get(key, 0)
            size = _stored_size(name, record, held)
            usage.bytes_used += size - held
            usage.sizes[key] = size

    def _on_deletion(self, store, db_index: int, key: bytes, reason: str,
                     when: float) -> None:
        if reason == "demote":
            # A tier move, not an erasure: the record is still the
            # tenant's footprint (promote-on-read serves it back).
            return
        usage = self._usage_of_key(key)
        if usage is None or key not in usage.sizes:
            return
        if any(other is not store and other.has_live_key(key, db_index)
               for other in self._stores):
            # The key lives on at another shard: a slot migration's
            # handoff, or the drop of its shadow copy.
            return
        usage.bytes_used -= usage.sizes.pop(key)

    def _usage_of_key(self, key: bytes) -> Optional[_TenantUsage]:
        """The usage of the registered tenant owning ``key``, if any."""
        tenant = tenant_of(key.decode("utf-8", "replace"))
        if tenant is None or not self.registry.known(tenant):
            return None
        return self._usage_of(tenant)

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
