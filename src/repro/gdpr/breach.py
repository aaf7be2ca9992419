"""Breach detection support and notification deadlines (Art. 33 & 34).

Art. 33 gives controllers 72 hours from becoming aware of a personal-data
breach to notify the supervisory authority; Art. 34 adds notifying the
affected subjects when the risk is high.  What storage contributes is the
*evidence*: "share insights and audit trails from concerned systems".
:class:`BreachNotifier` reconstructs, from the audit log, which subjects'
data was touched during a compromise window, assembles the notification
report, and tracks the deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .audit import AuditLog, AuditRecord

NOTIFICATION_DEADLINE_SECONDS = 72 * 3600.0


@dataclass
class BreachReport:
    """The Art. 33 notification package."""

    breach_id: str
    detected_at: float
    window_start: float
    window_end: float
    affected_subjects: List[str]
    affected_keys: List[str]
    operations_in_window: int
    denied_in_window: int
    high_risk: bool
    evidence: List[AuditRecord] = field(default_factory=list)
    notified_authority_at: Optional[float] = None
    notified_subjects_at: Optional[float] = None

    @property
    def authority_deadline(self) -> float:
        return self.detected_at + NOTIFICATION_DEADLINE_SECONDS

    def deadline_met(self) -> Optional[bool]:
        """None while unnotified; True/False once notified."""
        if self.notified_authority_at is None:
            return None
        return self.notified_authority_at <= self.authority_deadline

    def summary(self) -> Dict[str, object]:
        return {
            "breach_id": self.breach_id,
            "subjects": len(self.affected_subjects),
            "keys": len(self.affected_keys),
            "operations": self.operations_in_window,
            "denied": self.denied_in_window,
            "high_risk": self.high_risk,
            "deadline_met": self.deadline_met(),
        }


class BreachNotifier:
    """Builds breach reports from audit evidence and tracks deadlines."""

    def __init__(self, audit: AuditLog, clock=None) -> None:
        self.audit = audit
        self.clock = clock if clock is not None else audit.clock
        self.reports: List[BreachReport] = []
        self._counter = 0

    def detect(self, window_start: float, window_end: float,
               compromised_keys: Optional[Set[str]] = None,
               high_risk: Optional[bool] = None) -> BreachReport:
        """Assemble the report for a compromise window.

        ``compromised_keys`` narrows the blast radius when forensics knows
        which keys the attacker reached; otherwise every key touched in
        the window is presumed affected.
        """
        evidence = self.audit.records_between(window_start, window_end)
        if compromised_keys is not None:
            evidence = [r for r in evidence
                        if r.key is not None and r.key in compromised_keys]
        subjects: Set[str] = set()
        keys: Set[str] = set()
        denied = 0
        for record in evidence:
            if record.subject is not None:
                subjects.add(record.subject)
            if record.key is not None:
                keys.add(record.key)
            if record.outcome == "denied":
                denied += 1
        if high_risk is None:
            # Heuristic: reads of personal data by non-system principals
            # constitute exposure -> high risk (Art. 34 applies).
            high_risk = any(r.operation == "get" and r.outcome == "ok"
                            for r in evidence)
        self._counter += 1
        report = BreachReport(
            breach_id=f"breach-{self._counter:04d}",
            detected_at=self.clock.now(),
            window_start=window_start, window_end=window_end,
            affected_subjects=sorted(subjects), affected_keys=sorted(keys),
            operations_in_window=len(evidence), denied_in_window=denied,
            high_risk=high_risk, evidence=list(evidence))
        self.reports.append(report)
        self.audit.append(principal="system", operation="breach-detect",
                          outcome="ok",
                          detail=f"{report.breach_id}: "
                                 f"{len(subjects)} subjects")
        return report

    def notify_authority(self, report: BreachReport) -> bool:
        """Record authority notification; returns deadline compliance."""
        report.notified_authority_at = self.clock.now()
        met = report.deadline_met()
        self.audit.append(principal="system", operation="breach-notify",
                          outcome="ok" if met else "error",
                          detail=f"{report.breach_id} authority notified "
                                 f"{'within' if met else 'PAST'} 72h")
        return bool(met)

    def notify_subjects(self, report: BreachReport) -> int:
        """Art. 34: notify affected subjects when risk is high."""
        report.notified_subjects_at = self.clock.now()
        if not report.high_risk:
            return 0
        self.audit.append(principal="system", operation="breach-notify",
                          outcome="ok",
                          detail=f"{report.breach_id}: "
                                 f"{len(report.affected_subjects)} "
                                 "subjects notified")
        return len(report.affected_subjects)
