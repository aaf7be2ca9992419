"""Usage metering: per-tenant reports sealed into an audit chain.

Billing evidence gets the same tamper-evidence treatment as compliance
evidence: every metering interval the pipeline diffs each tenant's
cumulative counters against the last report, serializes the delta (plus
live footprint gauges) into an :class:`~repro.gdpr.audit.AuditRecord`,
and seals the round into one block of a dedicated
:class:`~repro.gdpr.audit.AuditLog`.  A tenant disputing a bill -- or a
provider disputing a tenant's claim -- replays the chain:
``verify()`` recomputes every block hash, so an
edited, reordered, or truncated report history fails loudly.

The pipeline runs on a recurring timer on its clock, every ``interval``
seconds; ``flush()`` is the synchronous end-of-run barrier.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..common.clock import Clock
from ..gdpr.audit import AuditDurability, AuditLog
from .gate import TenantGate

#: The principal metering records are appended under; consumers filter
#: the chain on it (usage reports share the evidence format, not the
#: data-path chain).
METERING_PRINCIPAL = "metering"


class MeteringPipeline:
    """Aggregate :class:`~repro.tenancy.gate.TenantGate` counters into
    periodic per-tenant reports on a sealed-block audit chain."""

    def __init__(self, gate: TenantGate, clock: Optional[Clock] = None,
                 interval: float = 1.0, log=None) -> None:
        self.gate = gate
        self.clock = clock if clock is not None else gate.clock
        self.interval = interval
        # One block per metering round: every flush is one chain update
        # and one group-commit, and verify() covers the whole run.
        self.audit = AuditLog(
            log=log, clock=self.clock, durability=AuditDurability.BATCH,
            # Rounds seal explicitly: never by size or interval.
            block_size=1 << 30, batch_interval=0.0)
        self.reports: List[Tuple[float, str, Dict[str, int]]] = []
        self._last: Dict[str, Dict[str, int]] = {}
        self._timer = self.clock.every(interval, self.flush,
                                       label="metering-flush")

    def stop_timer(self) -> None:
        self._timer.cancel()

    # -- reporting ---------------------------------------------------------

    def flush(self) -> int:
        """Emit one report per tenant with new activity and seal the
        round into a block.  Returns reports appended."""
        now = self.clock.now()
        appended = 0
        for tenant in self.gate.registry.tenants():
            cumulative = self.gate.counters_of(tenant).snapshot()
            previous = self._last.get(tenant)
            if previous == cumulative:
                continue
            if previous is None and not any(cumulative.values()):
                continue        # never-active tenant: no zero reports
            delta = {name: value - (previous or {}).get(name, 0)
                     for name, value in cumulative.items()}
            report = dict(delta)
            report["keys_held"] = self.gate.key_count(tenant)
            report["bytes_held"] = self.gate.bytes_used(tenant)
            self.audit.append(
                principal=METERING_PRINCIPAL, operation="usage-report",
                key=None, subject=tenant, outcome="ok",
                detail=json.dumps(report, sort_keys=True,
                                  separators=(",", ":")))
            self.reports.append((now, tenant, report))
            self._last[tenant] = cumulative
            appended += 1
        if appended:
            self.audit.seal_block()
        return appended

    # -- evidence ----------------------------------------------------------

    def verify(self) -> int:
        """Recompute the sealed-block chain over the durable metering
        log; returns member records verified, raises
        :class:`~repro.common.errors.AuditError` on tampering."""
        return self.audit.verify()

    def totals_of(self, tenant: str) -> Dict[str, int]:
        """Sum of every sealed report's deltas for ``tenant`` (what a
        bill would be computed from)."""
        totals: Dict[str, int] = {}
        for _, name, report in self.reports:
            if name != tenant:
                continue
            for counter, value in report.items():
                if counter in ("keys_held", "bytes_held"):
                    totals[counter] = value     # gauges: last wins
                else:
                    totals[counter] = totals.get(counter, 0) + value
        return totals
