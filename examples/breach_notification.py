#!/usr/bin/env python3
"""Art. 33/34 breach notification from the audit trail.

A storage-side incident-response drill: personal data of several subjects
is exfiltrated through an over-privileged service account; the audit log
reconstructs the blast radius and the controller notifies the authority
inside the 72-hour window.

Run with::

    python examples/breach_notification.py
"""

from repro import GDPRMetadata, GDPRStore, Principal, SimClock
from repro.gdpr import BreachNotifier, Operation
from repro.kvstore import KeyValueStore, StoreConfig


def main() -> None:
    clock = SimClock()
    kv = KeyValueStore(StoreConfig(appendonly=True, aof_log_reads=True),
                       clock=clock)
    store = GDPRStore(kv=kv)

    # Normal operation: records for a handful of subjects.
    subjects = ["alice", "bob", "carol", "dave"]
    for subject in subjects:
        store.put(f"{subject}:profile", f"pii-of-{subject}".encode(),
                  GDPRMetadata(owner=subject,
                               purposes=frozenset({"service"})))
    clock.advance(3600.0)

    # The incident: a compromised analytics account reads three subjects'
    # records over a twenty-minute window.
    store.access.grant("analytics-svc", Operation.READ)
    attacker = Principal("analytics-svc")
    window_start = clock.now()
    for victim in ("alice", "bob", "carol"):
        store.get(f"{victim}:profile", principal=attacker)
        clock.advance(400.0)
    window_end = clock.now()

    # It also probes a key it cannot reach (denied, but still audited).
    try:
        store.delete("dave:profile", principal=attacker)
    except Exception:
        pass

    # Forensics: reconstruct the breach from the audit trail.
    clock.advance(7200.0)  # discovered two hours later
    notifier = BreachNotifier(store.audit)
    report = notifier.detect(window_start, window_end)
    print(f"breach id:          {report.breach_id}")
    print(f"affected subjects:  {report.affected_subjects}")
    print(f"affected keys:      {report.affected_keys}")
    print(f"ops in window:      {report.operations_in_window} "
          f"(denied: {report.denied_in_window})")
    print(f"high risk (Art 34): {report.high_risk}")

    # Notify the supervisory authority within 72 hours of detection.
    clock.advance(24 * 3600.0)  # one day of incident response
    met = notifier.notify_authority(report)
    print(f"authority notified within 72h: {met}")

    # High risk -> the subjects themselves are notified too.
    notified = notifier.notify_subjects(report)
    print(f"subjects notified:  {notified}")

    # The evidence package is tamper-evident: verify the chain.
    verified = store.audit.verify()
    print(f"audit chain verified: {verified} records")


if __name__ == "__main__":
    main()
