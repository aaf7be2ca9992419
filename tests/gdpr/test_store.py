"""Tests for the GDPRStore facade."""

from collections import deque
from dataclasses import replace

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    AccessDeniedError,
    LocationViolationError,
    PurposeViolationError,
    StoreError,
    UnknownSubjectError,
)
from repro.crypto.cipher import AuthenticatedCipher
from repro.device.faults import FaultPlan
from repro.gdpr import (
    AuditDurability,
    GDPRConfig,
    GDPRMetadata,
    GDPRStore,
    Operation,
    Principal,
    right_of_access,
    right_to_erasure,
)
from repro.kvstore import KeyValueStore, StoreConfig
from tests.support import ENGINE_FACTORIES, py_calls


def make_store(clock=None, kv_config=None, **gdpr_kwargs):
    clock = clock if clock is not None else SimClock()
    kv_config = kv_config if kv_config is not None else StoreConfig(
        appendonly=True, aof_log_reads=True, expiry_strategy="fullscan")
    kv = KeyValueStore(kv_config, clock=clock)
    return GDPRStore(kv=kv, config=GDPRConfig(**gdpr_kwargs)), clock


def _strings_reachable(root, skip):
    """Every str held in ``root``'s attributes, transitively, except
    under the attribute names in ``skip``."""
    found, seen, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            found.add(obj)
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not callable(obj):
            stack.extend(value for name, value in vars(obj).items()
                         if name not in skip)
    return found


def meta(owner="alice", purposes=("billing",), **kwargs):
    return GDPRMetadata(owner=owner, purposes=frozenset(purposes),
                        **kwargs)


class TestPutGet:
    def test_roundtrip(self):
        store, _ = make_store()
        store.put("k", b"value", meta())
        record = store.get("k", purpose="billing")
        assert record.value == b"value"
        assert record.metadata.owner == "alice"

    def test_get_without_purpose(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        assert store.get("k").value == b"v"

    def test_get_missing_key(self):
        store, _ = make_store()
        with pytest.raises(KeyError):
            store.get("missing")

    def test_purpose_not_declared_rejected(self):
        store, _ = make_store()
        store.put("k", b"v", meta(purposes=("billing",)))
        with pytest.raises(PurposeViolationError):
            store.get("k", purpose="marketing")

    def test_put_requires_declared_purpose(self):
        store, _ = make_store()
        with pytest.raises(PurposeViolationError):
            store.put("k", b"v", meta(purposes=()))

    def test_put_without_purpose_allowed_when_configured(self):
        # A purpose is always required: the switch that waived it is gone.
        with pytest.raises(TypeError):
            make_store(require_purpose=False)

    def test_created_at_stamped(self):
        store, clock = make_store()
        clock.advance(42.0)
        store.put("k", b"v", meta())
        assert store.get("k").metadata.created_at == pytest.approx(42.0)

    def test_default_ttl_applied(self):
        # Retention comes from the purpose policy, then the tenant
        # default; there is no store-wide default any more.
        with pytest.raises(TypeError):
            make_store(default_ttl=600.0)
        store, _ = make_store()
        store.put("k", b"v", meta())
        assert store.get("k").metadata.ttl is None

    def test_values_encrypted_at_rest(self):
        store, _ = make_store()
        store.put("k", b"SECRET-MARKER", meta())
        raw = store.kv.execute("GET", "k")
        assert b"SECRET-MARKER" not in raw

    def test_plaintext_mode(self):
        store, _ = make_store(encrypt_at_rest=False)
        store.put("k", b"SECRET-MARKER", meta())
        raw = store.kv.execute("GET", "k")
        assert b"SECRET-MARKER" in raw


class TestAccessControl:
    def test_unknown_principal_denied_read(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        with pytest.raises(AccessDeniedError):
            store.get("k", principal=Principal("stranger"))

    def test_denied_access_audited(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        with pytest.raises(AccessDeniedError):
            store.get("k", principal=Principal("stranger"))
        denied = [r for r in store.audit.records()
                  if r.outcome == "denied"]
        assert len(denied) == 1
        assert denied[0].principal == "stranger"

    def test_granted_principal_allowed(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        store.access.grant("worker", Operation.READ, purpose="billing")
        record = store.get("k", principal=Principal("worker"),
                           purpose="billing")
        assert record.value == b"v"

    def test_subject_reads_own_data(self):
        store, _ = make_store()
        store.put("k", b"v", meta(owner="alice"))
        record = store.get("k", principal=Principal.subject("alice"))
        assert record.value == b"v"

    def test_subject_cannot_read_others(self):
        store, _ = make_store()
        store.put("k", b"v", meta(owner="alice"))
        with pytest.raises(AccessDeniedError):
            store.get("k", principal=Principal.subject("bob"))

    def test_write_denied_for_unknown(self):
        store, _ = make_store()
        with pytest.raises(AccessDeniedError):
            store.put("k", b"v", meta(), principal=Principal("stranger"))


class TestDelete:
    def test_delete_removes(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        assert store.delete("k") is True
        with pytest.raises(KeyError):
            store.get("k")

    def test_delete_missing(self):
        store, _ = make_store()
        assert store.delete("missing") is False

    def test_delete_updates_index(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        store.delete("k")
        assert store.keys_of_subject("alice") == []

    def test_delete_records_erasure_event(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        store.delete("k")
        assert store.erasure_report()["events"] == 1.0
        record = store.audit.records()[-1]
        assert (record.operation, record.key, record.subject,
                record.outcome) == ("delete", "k", "alice", "ok")


class TestTTLIntegration:
    def test_ttl_becomes_store_expiry(self):
        store, _ = make_store()
        store.put("k", b"v", meta(ttl=100.0))
        assert 99 <= store.kv.execute("TTL", "k") <= 100

    def test_expired_record_erased_by_cron(self):
        store, clock = make_store()
        store.put("k", b"v", meta(ttl=10.0))
        clock.advance(11)
        store.tick()
        with pytest.raises(KeyError):
            store.get("k")
        assert store.erasure_report()["events"] == 1.0
        erasures = [r for r in store.audit.records()
                    if r.operation == "expire-erase"]
        assert [(r.key, r.subject, r.detail) for r in erasures] == \
            [("k", "alice", "active-expire")]

    def test_erasure_lateness_tracked(self):
        store, clock = make_store()
        store.put("k", b"v", meta(ttl=10.0))
        clock.advance(25)
        store.tick()
        report = store.erasure_report()
        assert report["max_lateness"] == pytest.approx(15.0, abs=1.0)
        assert report["mean_lateness"] == report["max_lateness"]

    def test_erasure_report(self):
        store, clock = make_store()
        store.put("a", b"v", meta(ttl=10.0))
        store.put("b", b"v", meta(owner="bob", ttl=10.0))
        clock.advance(12)
        store.tick()
        report = store.erasure_report()
        assert report["events"] == 2.0
        assert report["with_deadline"] == 2.0
        assert report["max_lateness"] >= 0.0

    def test_erasure_bookkeeping_keeps_no_erased_names(self):
        """Regression: every deletion appended an event naming its key
        and subject, kept forever -- an in-memory copy of the identity
        Art. 17 removed.  Outside the engine, the audit log (which
        records the erasure on purpose) and the keystore (which keeps
        the subject's tombstone), nothing the store holds names an
        erased key or subject -- the metadata index included, whose
        expiry heap kept one entry per TTL put until its deadline
        passed."""
        store, _ = make_store()
        for number in range(1_000):
            store.put(f"user:{number}", b"v", meta(ttl=60.0 + number))
        right_to_erasure(store, "alice")
        assert store.erasure_report()["events"] == 1_000.0
        held = _strings_reachable(
            store, skip=("kv", "audit", "keystore"))
        assert not {"alice", "user:0", "user:999"} & held
    def test_system_erasure_audited(self):
        store, clock = make_store()
        store.put("k", b"v", meta(ttl=5.0))
        clock.advance(6)
        store.tick()
        ops = [r.operation for r in store.audit.records()]
        assert "expire-erase" in ops


class TestGroupAccess:
    def test_process_for_purpose(self):
        store, _ = make_store()
        store.put("k1", b"1", meta(purposes=("ads", "billing")))
        store.put("k2", b"2", meta(owner="bob", purposes=("billing",)))
        records = store.process_for_purpose("billing")
        assert sorted(r.key for r in records) == ["k1", "k2"]
        assert [r.key for r in store.process_for_purpose("ads")] == ["k1"]

    def test_keys_of_subject(self):
        store, _ = make_store()
        store.put("k1", b"1", meta())
        store.put("k2", b"2", meta(owner="bob"))
        assert store.keys_of_subject("alice") == ["k1"]

    def test_subject_parts(self):
        store, _ = make_store()
        store.put("k1", b"1", meta())

        def keys_part(target, subject, principal, arg):
            keys = target.keys_of_subject(subject)
            return {"keys": keys, "arg": arg} if keys else None

        controller = Principal.controller()
        assert store.subject_parts(keys_part, "alice", controller, 7) \
            == [(0, {"keys": ["k1"], "arg": 7})]
        assert store.subject_parts(keys_part, "ghost", controller) == []
        with pytest.raises(UnknownSubjectError):
            right_of_access(store, "ghost")


class TestLocationEnforcement:
    def test_put_blocked_in_disallowed_region(self):
        store, _ = make_store(region="us-east")
        with pytest.raises(LocationViolationError):
            store.put("k", b"v", meta())

    def test_put_allowed_when_whitelisted(self):
        store, _ = make_store(region="us-east")
        store.put("k", b"v", meta(allowed_regions=frozenset({"us-east"})))
        assert store.locations.locations_of("k") == ["us-east"]

    def test_location_tracked_and_cleared(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        assert store.locations.locations_of("k") == ["eu-west"]
        store.delete("k")
        assert store.locations.locations_of("k") == []

    def test_a_reopen_keeps_the_locations_of_the_keys_it_recovers(self):
        store, clock = make_store(kv_config=StoreConfig(
            appendonly=True, appendfsync="everysec"))
        store.put("kept", b"v", meta())
        clock.advance(2.0)                  # a timer's fsync has landed
        store.put("k", b"v", meta())
        FaultPlan(store.kv.aof_log, store.audit.log).power_loss()
        store = store.reopen()
        assert store.kv.live_keys() == [b"kept"]
        assert store.locations.locations_of("kept") == ["eu-west"]
        assert store.locations.locations_of("k") == []
        assert store.locations.has_node(store.config.node_id)


class TestUpdateMetadata:
    def test_update_reindexes(self):
        store, _ = make_store()
        store.put("k", b"v", meta(purposes=("ads",)))
        new_meta = store.get("k").metadata.with_objection("ads")
        store.update_metadata("k", new_meta)
        assert store.index.keys_for_purpose("ads") == []
        with pytest.raises(PurposeViolationError):
            store.get("k", purpose="ads")

    def test_update_preserves_value(self):
        store, _ = make_store()
        store.put("k", b"original", meta())
        store.update_metadata("k", meta(purposes=("billing", "new")))
        assert store.get("k").value == b"original"


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_deadline_already_past_leaves_no_index_entry(variant):
    """A metadata update whose new deadline has already passed removes
    the record (its ``SET..PXAT`` is a delete), so it leaves the record
    in no index: not readable, not the subject's."""
    clock = SimClock()
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](clock))
    store.put("k", b"v", meta(ttl=100.0))
    clock.advance(50.0)
    store.update_metadata("k", replace(store.get("k").metadata, ttl=10.0))
    with pytest.raises(KeyError):
        store.get("k")
    assert store.index.get_metadata("k") is None
    assert store.keys_of_subject("alice") == []
    assert not store.kv.has_live_key(b"k")


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_fresh_metadata_keeps_the_record_s_creation_time(variant):
    """Metadata without a ``created_at`` takes the one ``put`` stamped:
    a one-hour TTL set on a record put at t=10,000 s runs from then,
    not from 0."""
    clock = SimClock()
    clock.advance(10_000.0)
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](clock))
    store.put("k", b"v", meta())
    clock.advance(100.0)
    store.update_metadata("k", meta(ttl=3600.0))
    record = store.get("k")
    assert record.value == b"v"
    assert record.metadata.created_at == 10_000.0
    clock.advance(3501.0)   # past 10,000 + 3,600
    with pytest.raises(KeyError):
        store.get("k")


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_an_explicit_created_at_is_kept(variant):
    clock = SimClock()
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](clock))
    store.put("k", b"v", meta(ttl=100.0))
    clock.advance(50.0)
    store.update_metadata("k", meta(ttl=80.0, created_at=20.0))
    assert store.get("k").metadata.created_at == 20.0
    clock.advance(60.0)     # past 20 + 80
    with pytest.raises(KeyError):
        store.get("k")


class TestRebuildIndexes:
    def test_rebuild_from_keyspace(self):
        store, _ = make_store()
        store.put("k1", b"1", meta())
        store.put("k2", b"2", meta(owner="bob"))
        store.index.clear()
        assert store.keys_of_subject("alice") == []
        count = store.rebuild_indexes()
        assert count == 2
        assert store.keys_of_subject("alice") == ["k1"]
        assert store.keys_of_subject("bob") == ["k2"]

    def test_rebuild_plaintext_mode(self):
        store, _ = make_store(encrypt_at_rest=False)
        store.put("k1", b"1", meta())
        store.index.clear()
        assert store.rebuild_indexes() == 1

    def test_rebuild_skips_crypto_erased(self):
        store, _ = make_store()
        store.put("k1", b"1", meta())
        store.keystore.erase_key("alice")
        store.index.clear()
        assert store.rebuild_indexes() == 0


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_restart_opens_each_live_record_once(variant):
    """A record names its key by the sid it starts with, so a restart
    makes one AEAD attempt per record whose sid holds a key, and none
    for a record whose sid is tombstoned: that record is deleted.  (The
    rebuild tried every key on every record: 19,890 opens here.)"""
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](SimClock()))
    for number in range(200):
        store.put(f"user{number}:r", b"v" * 100, meta(owner=f"user{number}"))
    for number in range(0, 200, 10):
        store.keystore.erase_key(f"user{number}")
    count = py_calls(store.reopen, watched=[AuthenticatedCipher.open])
    assert count.watched[AuthenticatedCipher.open] == 180
    live = count.result
    assert len(live.kv.live_keys()) == len(live.index.keys()) == 180
    assert not live.kv.has_live_key(b"user10:r")
    assert live.get("user11:r").value == b"v" * 100


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_a_store_a_restart_replaced_refuses_every_request(variant):
    """Regression: a store kept serving after ``reopen()`` returned its
    successor, so a put through it reached the shared log but not the
    live store's index, and the next restart served it.  A superseded
    store refuses every request before any device step."""
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](SimClock()))
    store.put("a:r", b"a", meta())
    live = store.reopen()
    plan = FaultPlan(store.kv.aof_log, store.audit.log)
    requests = [
        lambda: store.put("b:r", b"b", meta()),
        lambda: store.get("a:r"),
        lambda: store.delete("a:r"),
        lambda: store.update("a:r", bytes.upper),
        lambda: store.update_metadata("a:r", meta()),
        lambda: store.process_for_purpose("billing"),
        lambda: right_of_access(store, "alice"),
        lambda: right_to_erasure(store, "alice"),
        store.tick,
        store.flush_compliance,
    ]
    for request in requests:
        with pytest.raises(StoreError, match="reopen"):
            request()
    assert plan.steps == []
    live.put("c:r", b"c", meta())
    again = live.reopen()
    assert sorted(again.kv.live_keys()) == [b"a:r", b"c:r"]
    assert again.keys_of_subject("alice") == ["a:r", "c:r"]
    assert again.audit.verify() == len(again.audit.records())


class TestAudit:
    def test_every_interaction_audited(self):
        store, _ = make_store()
        store.put("k", b"v", meta())
        store.get("k")
        store.delete("k")
        ops = [r.operation for r in store.audit.records()]
        assert ops.count("put") == 1
        assert ops.count("get") == 1
        assert ops.count("delete") == 1
