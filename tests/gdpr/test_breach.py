"""Tests for breach detection and notification (Art. 33/34)."""

import pytest

from repro.common.clock import SimClock
from repro.gdpr import (
    NOTIFICATION_DEADLINE_SECONDS,
    BreachNotifier,
    GDPRConfig,
    GDPRMetadata,
    GDPRStore,
)
from repro.kvstore import KeyValueStore, StoreConfig


def seeded_store():
    clock = SimClock()
    kv = KeyValueStore(StoreConfig(appendonly=True), clock=clock)
    store = GDPRStore(kv=kv, config=GDPRConfig())
    for subject in ("alice", "bob"):
        store.put(f"{subject}:1", b"pii",
                  GDPRMetadata(owner=subject,
                               purposes=frozenset({"svc"})))
    return store, clock


class TestDetection:
    def test_affected_subjects_from_audit(self):
        store, clock = seeded_store()
        start = clock.now()
        store.get("alice:1")
        store.get("bob:1")
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(start, clock.now())
        assert report.affected_subjects == ["alice", "bob"]
        assert set(report.affected_keys) >= {"alice:1", "bob:1"}

    def test_window_filters_events(self):
        store, clock = seeded_store()
        store.get("alice:1")
        clock.advance(100)
        window_start = clock.now()
        store.get("bob:1")
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(window_start, clock.now())
        assert report.affected_subjects == ["bob"]

    def test_compromised_keys_narrow_blast_radius(self):
        store, clock = seeded_store()
        start = 0.0
        store.get("alice:1")
        store.get("bob:1")
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(start, clock.now(),
                                 compromised_keys={"alice:1"})
        assert report.affected_subjects == ["alice"]

    def test_high_risk_heuristic(self):
        store, clock = seeded_store()
        start = clock.now()
        store.get("alice:1")
        notifier = BreachNotifier(store.audit)
        assert notifier.detect(start, clock.now()).high_risk is True

    def test_high_risk_override(self):
        store, clock = seeded_store()
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(0.0, clock.now(), high_risk=False)
        assert report.high_risk is False

    def test_denied_operations_counted(self):
        from repro.common.errors import AccessDeniedError
        from repro.gdpr import Principal
        store, clock = seeded_store()
        start = clock.now()
        with pytest.raises(AccessDeniedError):
            store.get("alice:1", principal=Principal("attacker"))
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(start, clock.now())
        assert report.denied_in_window == 1

    def test_detection_audited(self):
        store, clock = seeded_store()
        notifier = BreachNotifier(store.audit)
        notifier.detect(0.0, clock.now())
        assert any(r.operation == "breach-detect"
                   for r in store.audit.records())

    def test_breach_ids_unique(self):
        store, clock = seeded_store()
        notifier = BreachNotifier(store.audit)
        a = notifier.detect(0.0, clock.now())
        b = notifier.detect(0.0, clock.now())
        assert a.breach_id != b.breach_id


class TestNotificationDeadline:
    def test_72_hour_deadline(self):
        assert NOTIFICATION_DEADLINE_SECONDS == 72 * 3600

    def test_notify_within_deadline(self):
        store, clock = seeded_store()
        store.get("alice:1")
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(0.0, clock.now())
        clock.advance(3600)  # one hour later
        assert notifier.notify_authority(report) is True
        assert report.deadline_met() is True

    def test_notify_past_deadline(self):
        store, clock = seeded_store()
        store.get("alice:1")
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(0.0, clock.now())
        clock.advance(NOTIFICATION_DEADLINE_SECONDS + 1)
        assert notifier.notify_authority(report) is False

    def test_deadline_unknown_before_notification(self):
        store, clock = seeded_store()
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(0.0, clock.now())
        assert report.deadline_met() is None

    def test_subject_notification_high_risk(self):
        store, clock = seeded_store()
        store.get("alice:1")
        store.get("bob:1")
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(0.0, clock.now())
        assert notifier.notify_subjects(report) == 2

    def test_subject_notification_skipped_low_risk(self):
        store, clock = seeded_store()
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(0.0, clock.now(), high_risk=False)
        assert notifier.notify_subjects(report) == 0

    def test_summary_shape(self):
        store, clock = seeded_store()
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(0.0, clock.now())
        summary = report.summary()
        assert {"breach_id", "subjects", "keys", "operations",
                "denied", "high_risk", "deadline_met"} <= set(summary)
