"""Integration: full GDPR flows across the whole stack."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import AccessDeniedError
from repro.gdpr import (
    AuditDurability,
    BreachNotifier,
    GDPRConfig,
    GDPRMetadata,
    GDPRStore,
    Operation,
    Principal,
    right_of_access,
    right_to_erasure,
    right_to_object,
    right_to_portability,
)
from repro.kvstore import EventConnection, KeyValueStore, StoreConfig
from repro.net.tls import stunnel_channel
from tests.support import one_core_server


def build_stack(compact_on_erasure=True):
    clock = SimClock()
    kv = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync="always",
                    aof_log_reads=True, expiry_strategy="indexed"),
        clock=clock)
    store = GDPRStore(kv=kv, config=GDPRConfig(
        encrypt_at_rest=True, audit_durability=AuditDurability.SYNC,
        compact_on_erasure=compact_on_erasure))
    return store, clock


def meta(owner, purposes=("service",), **kwargs):
    return GDPRMetadata(owner=owner, purposes=frozenset(purposes),
                        **kwargs)


class TestSubjectLifecycle:
    """A data subject's complete journey through the system."""

    def test_full_lifecycle(self):
        store, clock = build_stack()
        # 1. Controller stores personal data under declared purposes.
        store.put("alice:profile", b"name=Alice",
                  meta("alice", ("service", "analytics")))
        store.put("alice:orders", b"order-history",
                  meta("alice", ("service",), ttl=86400.0))
        # 2. A processor with an analytics grant reads it.
        store.access.grant("analyst", Operation.READ, purpose="analytics")
        record = store.get("alice:profile",
                           principal=Principal("analyst"),
                           purpose="analytics")
        assert record.value == b"name=Alice"
        # 3. Alice checks what is held about her (Art. 15).
        report = right_of_access(store, "alice")
        assert len(report.records) == 2
        # 4. Alice objects to analytics (Art. 21); the processor loses
        #    access to that purpose.
        right_to_object(store, "alice", "analytics")
        with pytest.raises(Exception):
            store.get("alice:profile", principal=Principal("analyst"),
                      purpose="analytics")
        # 5. Alice exports her data (Art. 20).
        export = right_to_portability(store, "alice")
        assert b"order-history" in export
        # 6. Alice invokes the right to be forgotten (Art. 17).
        receipt = right_to_erasure(store, "alice")
        assert receipt.crypto_erased and not receipt.residual_in_aof
        assert store.keys_of_subject("alice") == []
        # 7. The audit trail is complete and verifiable.
        assert store.audit.verify() > 8

    def test_retention_enforced_end_to_end(self):
        store, clock = build_stack()
        store.put("temp", b"short-lived", meta("bob", ttl=60.0))
        clock.advance(61)
        store.tick()
        with pytest.raises(KeyError):
            store.get("temp")
        report = store.erasure_report()
        assert report["events"] == 1.0
        # Indexed expiry erases on the first cron tick after the deadline
        # (we advanced 1 s past it, so lateness is bounded by that step).
        assert report["max_lateness"] <= 1.1

    def test_breach_workflow(self):
        store, clock = build_stack()
        store.put("alice:1", b"pii", meta("alice"))
        store.put("bob:1", b"pii", meta("bob"))
        window_start = clock.now()
        # An over-privileged principal reads both subjects' data.
        store.access.grant("intruder", Operation.READ)
        store.get("alice:1", principal=Principal("intruder"))
        store.get("bob:1", principal=Principal("intruder"))
        window_end = clock.now()
        notifier = BreachNotifier(store.audit)
        report = notifier.detect(window_start, window_end)
        assert report.affected_subjects == ["alice", "bob"]
        assert report.high_risk
        clock.advance(3600)
        assert notifier.notify_authority(report) is True
        assert notifier.notify_subjects(report) == 2


class TestRestartRecovery:
    def test_state_and_indexes_survive_restart(self):
        store, _ = build_stack()
        store.put("alice:1", b"v1", meta("alice"))
        store.put("bob:1", b"v2", meta("bob"))
        # The restart replays the AOF over the same device and rebuilds
        # the indexes by scanning; the keystore is carried over live.
        restored = store.reopen()
        assert sorted(restored.index.keys()) == ["alice:1", "bob:1"]
        assert restored.get("alice:1").value == b"v1"
        assert restored.keys_of_subject("bob") == ["bob:1"]

    def test_erased_subject_unrecoverable_after_restart(self):
        store, _ = build_stack(compact_on_erasure=False)
        store.put("alice:1", b"v1", meta("alice"))
        right_to_erasure(store, "alice")
        # Replay the uncompacted AOF: ciphertext returns, but the key is
        # gone, so the record is undecryptable and unindexed.
        restored = store.reopen()
        assert restored.index.keys() == []
        assert restored.keys_of_subject("alice") == []


class TestTlsDeployment:
    def test_kv_behind_tls_serves_gdpr_blobs(self):
        clock = SimClock()
        channel = stunnel_channel(clock)
        client = EventConnection(one_core_server(clock), channel=channel,
                                 psk=b"deploy-psk")
        client.call("SET", "k", "ciphertext-blob")
        assert client.call("GET", "k") == b"ciphertext-blob"
        # Bytes on the wire are TLS records, not the payload.
        assert channel.bytes_transferred > 0
