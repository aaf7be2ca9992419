"""GDPR shards as nodes of the networked cluster: the GDPR commands go
through the same slot check, redirects and replica rules as any keyed
command, and a refusal on the shard reaches the client as the exception
the store raised."""

import pytest

from repro.cluster import (
    GDPRClient,
    SlotMigrator,
    build_cluster,
    gdpr_shards,
    slot_for_key,
)
from repro.common.errors import (
    AccessDeniedError, PurposeViolationError, UnknownCommandError)
from repro.common.resp import RespError
from repro.gdpr import GDPRMetadata
from repro.gdpr.access_control import Principal
from repro.gdpr.node import encode_principal

CONTROLLER = encode_principal(Principal.controller())


def meta(owner="alice"):
    return GDPRMetadata(owner=owner, purposes=frozenset({"service"}))


def gdpr_cluster(num_shards=2):
    cluster = build_cluster(num_shards, store_factory=gdpr_shards())
    return cluster, GDPRClient(cluster)


def audited_gets(layer, key):
    return [record for record in layer.audit.records()
            if record.operation == "get" and record.key == key]


def test_get_in_a_migrating_slot_follows_ask_to_the_target():
    cluster, store = gdpr_cluster()
    key = "{mig}:alice:0"
    store.put(key, b"held", meta())
    slot = slot_for_key(key)
    source = cluster.slots.shard_of_slot(slot)
    target = 1 - source
    migrator = SlotMigrator(cluster, slot, target)
    born = "{mig}:carol:0"           # created mid-migration: on the target
    store.put(born, b"born", meta("carol"))
    asked = cluster.ask_redirects
    assert store.get(born).value == b"born"
    assert cluster.ask_redirects > asked
    assert audited_gets(store.shards[target], born)
    assert not audited_gets(store.shards[source], born)
    # A key the source still holds is served there, without a redirect.
    asked = cluster.ask_redirects
    assert store.get(key).value == b"held"
    assert cluster.ask_redirects == asked
    assert audited_gets(store.shards[source], key)
    migrator.finish()


def test_get_after_the_flip_follows_moved():
    cluster, store = gdpr_cluster()
    key = "{mig}:alice:0"
    store.put(key, b"v", meta())
    slot = slot_for_key(key)
    target = 1 - cluster.slots.shard_of_slot(slot)
    SlotMigrator(cluster, slot, target).run()
    moved = cluster.moved_redirects
    assert store.get(key).value == b"v"
    assert cluster.moved_redirects == moved + 1
    assert cluster.shard_for(key) == target


def test_replica_preferred_gdpr_read_is_served_by_the_primary():
    cluster, store = gdpr_cluster()
    cluster.attach_replication(delays=(0.001,))
    store.put("user:1", b"v", meta())
    cluster.clock.advance(0.01)
    owner = cluster.shard_for("user:1")
    reply = cluster.call("GDPR.GET", "user:1", CONTROLLER, "",
                         prefer_replica=True)
    assert reply.endswith(b"\x00v")
    assert cluster.replica_reads == 0
    assert len(audited_gets(store.shards[owner], "user:1")) == 1
    # The replica is a bare engine: it holds the sealed envelope and
    # would not know the command.
    link = cluster.replication.groups[owner].links[0]
    assert link.replica.execute("EXISTS", "user:1") == 1
    with pytest.raises(UnknownCommandError):
        link.replica.execute("GDPR.GET", "user:1", CONTROLLER, "")


def test_refusals_reach_the_client_as_the_store_raised_them():
    _, store = gdpr_cluster()
    store.put("user:1", b"v", meta())
    with pytest.raises(AccessDeniedError):
        store.get("user:1", principal=Principal("stranger"))
    with pytest.raises(PurposeViolationError):
        store.get("user:1", purpose="ads")
    with pytest.raises(KeyError):
        store.get("user:2")
    assert store.delete("user:1") is True
    assert store.delete("user:1") is False


def test_a_plain_node_does_not_know_the_gdpr_commands():
    cluster = build_cluster(1)
    with pytest.raises(RespError, match="unknown command"):
        cluster.call("GDPR.GET", "user:1", CONTROLLER, "")


def test_cluster_maintenance_reaches_the_gdpr_layer():
    cluster = build_cluster(2, store_factory=gdpr_shards(fast_gdpr=True))
    store = GDPRClient(cluster)
    for number in range(6):
        store.put(f"user:{number}", b"v", meta())
    assert all(layer.audit.pending_records
               for layer in store.shards)
    cluster.flush_compliance()
    assert not any(layer.audit.pending_records
                   for layer in store.shards)
    assert sum(cluster.verify_audit_chains().values()) >= 6
    assert cluster.erasure_report()["events"] == 0
