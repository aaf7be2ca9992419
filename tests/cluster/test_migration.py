"""Tests for live slot migration: MOVED/ASK redirects, data movement,
and GDPR correctness (erasure mid-migration, audit handoff)."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    ClusterError,
    KeyNotFoundError,
    MigrationError,
    RedirectLoopError,
)
from repro.common.resp import RespError
from repro.cluster import (
    NUM_SLOTS,
    GDPRClient,
    SlotMap,
    SlotMigrator,
    build_cluster,
    gdpr_shards,
    slot_for_key,
)
from repro.gdpr import GDPRMetadata
from repro.gdpr.rights import right_of_access, right_to_erasure


def tagged_keys(tag, count, prefix="k"):
    """Keys sharing one hash slot via {tag}."""
    return [f"{{{tag}}}:{prefix}{i}" for i in range(count)]


def make_cluster_with_slot(num_shards=2, tag="mig", count=6):
    """A cluster with `count` keys in one slot, plus where that slot is."""
    cluster = build_cluster(num_shards)
    keys = tagged_keys(tag, count)
    slot = slot_for_key(keys[0])
    for i, key in enumerate(keys):
        cluster.call("SET", key, f"v{i}")
    source = cluster.slots.shard_of_slot(slot)
    target = (source + 1) % num_shards
    return cluster, keys, slot, source, target


class TestSlotMapMigrationStates:
    def test_begin_sets_both_sides(self):
        slots = SlotMap.even(2)
        state = slots.begin_migration(0, 1)
        assert state.source == 0 and state.target == 1
        assert slots.migration_of(0).source == 0
        assert slots.migration_of(0).target == 1
        assert [slot for slot in range(NUM_SLOTS)
                if slots.migration_of(slot) is not None] == [0]
        assert slots.importing_slots_of(1) == [0]
        # Routing is unchanged until the flip.
        assert slots.shard_of_slot(0) == 0

    def test_end_flips_atomically(self):
        slots = SlotMap.even(2)
        slots.begin_migration(5, 1)
        assert slots.end_migration(5) == 1
        assert slots.shard_of_slot(5) == 1
        assert slots.migration_of(5) is None

    def test_abort_keeps_owner(self):
        slots = SlotMap.even(2)
        slots.begin_migration(5, 1)
        slots.abort_migration(5)
        assert slots.shard_of_slot(5) == 0
        assert slots.migration_of(5) is None

    def test_double_begin_rejected(self):
        slots = SlotMap.even(2)
        slots.begin_migration(5, 1)
        with pytest.raises(MigrationError):
            slots.begin_migration(5, 1)

    def test_begin_to_owner_rejected(self):
        slots = SlotMap.even(2)
        with pytest.raises(MigrationError):
            slots.begin_migration(5, 0)

    def test_end_without_begin_rejected(self):
        with pytest.raises(MigrationError):
            SlotMap.even(2).end_migration(5)

    def test_assign_refuses_migrating_slot(self):
        slots = SlotMap.even(2)
        slots.begin_migration(5, 1)
        with pytest.raises(MigrationError):
            slots.assign([5], 1)


class TestDataMovement:
    def test_migration_moves_every_key(self):
        cluster, keys, slot, source, target = make_cluster_with_slot()
        receipt = SlotMigrator(cluster, slot, target).run()
        assert sorted(receipt.keys_moved) == sorted(keys)
        assert receipt.bytes_moved > 0
        assert not receipt.aborted
        src_db = cluster.nodes[source].store.databases[0]
        dst_db = cluster.nodes[target].store.databases[0]
        for key in keys:
            raw = key.encode()
            assert raw not in src_db
            assert raw in dst_db

    def test_ttls_survive_the_move(self):
        cluster, keys, slot, source, target = make_cluster_with_slot()
        cluster.call("EXPIRE", keys[0], 500)
        SlotMigrator(cluster, slot, target).run()
        ttl = cluster.call("TTL", keys[0])
        assert 0 < ttl <= 500
        assert cluster.call("TTL", keys[1]) == -1

    def test_a_deadline_under_a_millisecond_away_still_expires(self):
        """The deadline travels absolute: a key with 0.3 ms left used to
        read PTTL 0 and arrive with no expiry at all."""
        cluster, keys, slot, source, target = make_cluster_with_slot()
        now = cluster.sync()
        cluster.nodes[source].store.execute(
            "PEXPIREAT", keys[0], int(now * 1000) + 1)
        cluster.nodes[source].clock.sleep_until(int(now * 1000) / 1000
                                                + 0.0007)
        SlotMigrator(cluster, slot, target).run()
        cluster.clock.advance(5.0)
        cluster.sync()
        assert cluster.call("GET", keys[0]) is None
        assert cluster.call("PTTL", keys[0]) == -2

    def test_a_deadline_does_not_move_with_the_target_clock(self):
        """A target shard whose clock runs 1 s ahead keeps a 10 s
        deadline where the source had it."""
        cluster, keys, slot, source, target = make_cluster_with_slot()
        cluster.call("PEXPIRE", keys[0], 10_000)
        deadline = cluster.call("PEXPIRETIME", keys[0])
        target_clock = cluster.nodes[target].clock
        target_clock.sleep_until(target_clock.now() + 1.0)
        SlotMigrator(cluster, slot, target).run()
        assert cluster.call("PEXPIRETIME", keys[0]) == deadline
        assert cluster.nodes[target].store.execute(
            "PEXPIRETIME", keys[0]) == deadline

    def test_source_write_after_copy_is_recopied(self):
        """rsync invariant: the target can never win with stale data."""
        cluster, keys, slot, source, target = make_cluster_with_slot()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(len(keys))        # everything copied once
        cluster.call("SET", keys[0], "updated")
        receipt = migrator.finish()
        assert receipt.recopied >= 1
        assert cluster.call("GET", keys[0]) == b"updated"

    def test_delete_mid_migration_cascades_to_target(self):
        """The flip must never resurrect a deleted key."""
        cluster, keys, slot, source, target = make_cluster_with_slot()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(len(keys))
        cluster.call("DEL", keys[0])
        migrator.finish()
        assert cluster.call("GET", keys[0]) is None
        dst_db = cluster.nodes[target].store.databases[0]
        assert keys[0].encode() not in dst_db

    def test_abort_rolls_back_target_copies(self):
        cluster, keys, slot, source, target = make_cluster_with_slot()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(3)
        receipt = migrator.abort()
        assert receipt.aborted
        assert cluster.slots.shard_of_slot(slot) == source
        dst_db = cluster.nodes[target].store.databases[0]
        for key in keys:
            assert key.encode() not in dst_db
        for i, key in enumerate(keys):
            assert cluster.call("GET", key) == f"v{i}".encode()

    def test_abort_prefers_fresher_source_over_stale_shadow(self):
        """A shadow dirtied after its copy must never overwrite the
        source's newer value on abort."""
        cluster, keys, slot, source, target = make_cluster_with_slot()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(len(keys))        # shadows hold v0..v5
        cluster.call("SET", keys[0], "v2-newer")
        migrator.abort()
        assert cluster.call("GET", keys[0]) == b"v2-newer"
        assert keys[0].encode() not in \
            cluster.nodes[target].store.databases[0]

    def test_link_transfer_charged_once_per_endpoint(self):
        """Both ends are busy for a key's transfer: each shard's meter
        is charged the link cost exactly once."""
        cluster = build_cluster(2)
        cluster.call("SET", "{mig}:k", "v" * 64)
        slot = slot_for_key("{mig}:k")
        source = cluster.slots.shard_of_slot(slot)
        before = cluster.sync()
        receipt = SlotMigrator(cluster, slot, 1 - source).run()
        channel = cluster.nodes[source].channel
        cost = (channel.latency + channel.per_message_overhead
                + receipt.bytes_moved / channel.bandwidth_bps)
        for node in cluster.nodes:
            assert node.clock.now() - before == pytest.approx(cost)

    def test_abort_repatriates_keys_born_on_target(self):
        """A key created mid-migration via ASK lives on the target; an
        abort must bring it home, not strand the acknowledged write."""
        cluster, keys, slot, source, target = make_cluster_with_slot()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(2)
        newkey = "{mig}:born-late"
        cluster.call("SET", newkey, "keep-me")
        assert newkey.encode() in \
            cluster.nodes[target].store.databases[0]
        migrator.abort()
        assert cluster.slots.shard_of_slot(slot) == source
        assert newkey.encode() in \
            cluster.nodes[source].store.databases[0]
        assert newkey.encode() not in \
            cluster.nodes[target].store.databases[0]
        assert cluster.call("GET", newkey) == b"keep-me"

    def test_select_refused_in_cluster_mode(self):
        cluster = build_cluster(2)
        reply = cluster.call("SELECT", 1, raise_errors=False)
        assert isinstance(reply, RespError)
        assert "cluster mode" in str(reply)

    def test_finished_migrator_refuses_reuse(self):
        cluster, keys, slot, source, target = make_cluster_with_slot()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.run()
        with pytest.raises(MigrationError):
            migrator.step()
        with pytest.raises(MigrationError):
            migrator.finish()


class TestRedirects:
    def test_moved_retry_after_flip(self):
        """A stale client discovers the flip via MOVED, transparently."""
        cluster, keys, slot, source, target = make_cluster_with_slot()
        SlotMigrator(cluster, slot, target).run()
        assert cluster.shard_for(keys[0]) == source     # stale cache
        assert cluster.moved_redirects == 0
        assert cluster.call("GET", keys[0]) == b"v0"
        assert cluster.moved_redirects == 1
        assert cluster.shard_for(keys[0]) == target     # cache learned
        # Subsequent calls pay no redirect.
        cluster.call("GET", keys[1])
        assert cluster.moved_redirects == 1

    def test_ask_is_one_shot_and_does_not_update_cache(self):
        cluster, keys, slot, source, target = make_cluster_with_slot()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(1)
        newkey = f"{{mig}}:fresh"
        assert slot_for_key(newkey) == slot
        cluster.call("SET", newkey, "born-on-target")
        assert cluster.ask_redirects == 1
        # The new key lives on the importing target, not the source.
        assert newkey.encode() in cluster.nodes[target].store.databases[0]
        assert newkey.encode() not in \
            cluster.nodes[source].store.databases[0]
        # ASK never updates the routing cache: the next access to the
        # same key is ASK-redirected again.
        assert cluster.shard_for(newkey) == source
        assert cluster.call("GET", newkey) == b"born-on-target"
        assert cluster.ask_redirects == 2
        migrator.finish()
        assert cluster.call("GET", newkey) == b"born-on-target"

    def test_importing_shard_refuses_without_asking(self):
        """Direct (non-ASKING) requests to the target get MOVED back to
        the still-authoritative source.  (Observed at the node level:
        the client would follow the redirect transparently.)"""
        cluster, keys, slot, source, target = make_cluster_with_slot()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(len(keys))
        cluster.nodes[target].send_batch([[b"GET", keys[0].encode()]])
        [reply] = cluster.nodes[target].await_replies(1)
        assert isinstance(reply, RespError)
        assert str(reply) == f"MOVED {slot} {source}"
        # A pinned call still succeeds: the client absorbs the MOVED.
        assert cluster.call("GET", keys[0], shard=target) == b"v0"
        migrator.finish()

    def test_pipeline_straddling_flip_retries_transparently(self):
        cluster, keys, slot, source, target = make_cluster_with_slot()
        SlotMigrator(cluster, slot, target).run()
        pipeline = cluster.pipeline()
        for key in keys:
            pipeline.call("GET", key)
        replies = pipeline.execute()
        assert replies == [f"v{i}".encode() for i in range(len(keys))]
        assert cluster.moved_redirects >= 1

    def test_tryagain_for_split_multikey(self):
        cluster, keys, slot, source, target = make_cluster_with_slot()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(len(keys))
        cluster.call("DEL", keys[0])        # now absent on the source
        reply = cluster.call("EXISTS", keys[0], keys[1],
                             raise_errors=False)
        assert isinstance(reply, RespError)
        assert str(reply).startswith("TRYAGAIN")
        migrator.finish()
        assert cluster.call("EXISTS", keys[0], keys[1]) == 1
        assert cluster.call("GET", keys[1]) == b"v1"

    def test_pipeline_queue_cleared_when_execute_raises(self):
        """A pipeline that failed must not re-submit its old requests
        on the next execute."""
        cluster = build_cluster(2)
        pipeline = cluster.pipeline()
        pipeline.call("SET", "k", "v")
        # Corrupt the routed shard to force a pre-execution failure.
        pipeline._requests[0] = (99, pipeline._requests[0][1])
        with pytest.raises(ClusterError):
            pipeline.execute()
        assert len(pipeline) == 0
        pipeline.call("GET", "k")
        assert pipeline.execute() == [None]     # the SET never ran

    def test_redirect_loop_is_capped(self):
        class BounceNode:
            """A 'server' that always points at the other shard."""

            scheduler = SimClock()

            def __init__(self, index, slot):
                self.index = index
                self._slot = slot
                self._sent = 0

            def send_batch(self, batch):
                self._sent += len(batch)

            def await_replies(self, count):
                self._sent -= count
                return [RespError(f"MOVED {self._slot} "
                                  f"{1 - self.index}")
                        for _ in range(count)]

        from repro.cluster import ClusterClient
        slot = slot_for_key("k")
        nodes = [BounceNode(0, slot), BounceNode(1, slot)]
        client = ClusterClient(nodes, max_redirects=4)
        with pytest.raises(RedirectLoopError):
            client.call("GET", "k")

    def test_unfollowable_redirect_surfaces_raw_error(self):
        cluster, keys, slot, source, target = make_cluster_with_slot()
        # Fabricate a reply pointing at a shard this client has no node
        # for: the client must surface it instead of crashing.
        error = RespError(f"MOVED {slot} 7")
        from repro.cluster import parse_redirect
        redirect = parse_redirect(error)
        assert redirect is not None and redirect.shard == 7


class TestBroadcastsDuringMigration:
    def test_dbsize_excludes_importing_slots(self):
        cluster, keys, slot, source, target = make_cluster_with_slot()
        for i in range(20):     # ballast outside the migrating slot
            cluster.call("SET", f"other{i}", "v")
        total = cluster.call("DBSIZE")
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(len(keys))    # both shards now hold copies
        assert cluster.call("DBSIZE") == total
        migrator.finish()
        assert cluster.call("DBSIZE") == total

    def test_keys_excludes_importing_slots(self):
        cluster, keys, slot, source, target = make_cluster_with_slot()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(len(keys))
        found = cluster.call("KEYS", "*")
        assert sorted(found) == sorted(k.encode() for k in keys)
        migrator.finish()
        assert sorted(cluster.call("KEYS", "*")) == \
            sorted(k.encode() for k in keys)


class TestPipelineDuringMigration:
    def test_ycsb_workload_survives_a_live_migration(self):
        cluster = build_cluster(2)
        keys = tagged_keys("ycsb", 8, prefix="user")
        slot = slot_for_key(keys[0])
        target = 1 - cluster.slots.shard_of_slot(slot)
        pipeline = cluster.pipeline()
        for key in keys:
            pipeline.call("HSET", key, "f0", "a", "f1", "b")
        pipeline.execute()
        migrator = SlotMigrator(cluster, slot, target)
        migrator.step(3)
        # Read-your-writes across the migration boundary.
        cluster.pipeline().call("HSET", keys[0], "f0", "updated").execute()
        assert cluster.call("HGET", keys[0], "f0") == b"updated"
        migrator.finish()
        assert cluster.call("HGET", keys[0], "f0") == b"updated"
        assert cluster.call("HGET", keys[5], "f1") == b"b"
        assert cluster.moved_redirects + cluster.ask_redirects >= 1


def gdpr_fixture(tag="gdpr", subjects=("alice", "bob"), per_subject=3):
    store = GDPRClient(build_cluster(2, store_factory=gdpr_shards()))
    keys = {}
    for subject in subjects:
        keys[subject] = [f"{{{tag}}}:{subject}:{i}"
                         for i in range(per_subject)]
        for key in keys[subject]:
            store.put(key, f"{subject}-data".encode(),
                      GDPRMetadata(owner=subject,
                                   purposes=frozenset({"service"})))
    slot = slot_for_key(f"{{{tag}}}:x")
    source = store.cluster.slots.shard_of_slot(slot)
    return store, keys, slot, source, 1 - source


class TestGDPRMigration:
    def test_metadata_and_values_move_together(self):
        store, keys, slot, source, target = gdpr_fixture()
        receipt = SlotMigrator(store.cluster, slot, target).run()
        assert len(receipt.keys_moved) == 6
        assert store.cluster.slots.shard_of_slot(slot) == target
        for key in keys["alice"]:
            record = store.get(key)
            assert record.value == b"alice-data"
            assert record.metadata.owner == "alice"
            assert store.shards[target].index.get_metadata(key) \
                is not None
            assert store.shards[source].index.get_metadata(key) is None
        assert store.shards_of_subject("alice") == [target]

    def test_retention_deadline_survives_to_the_millisecond(self):
        store, keys, slot, source, target = gdpr_fixture()
        key = "{gdpr}:dana:0"
        store.put(key, b"dana-data",
                  GDPRMetadata(owner="dana", ttl=10.0004,
                               purposes=frozenset({"service"})))
        expire_at = store.get(key).metadata.expire_at()
        SlotMigrator(store.cluster, slot, target).run()
        assert store.shards[target].kv.execute("PEXPIRETIME", key) \
            == int(expire_at * 1000)
        assert store.get(key).metadata.expire_at() == expire_at

    def test_handoff_recorded_in_both_audit_chains(self):
        store, keys, slot, source, target = gdpr_fixture()
        SlotMigrator(store.cluster, slot, target).run()
        store.cluster.verify_audit_chains()     # chains intact on both shards
        source_ops = [r.operation
                      for r in store.shards[source].audit.records()]
        target_ops = [r.operation
                      for r in store.shards[target].audit.records()]
        assert source_ops.count("migrate-out") == 6
        assert target_ops.count("migrate-in") == 6
        assert "migrate-begin" in source_ops and \
            "migrate-end" in source_ops
        assert "migrate-begin" in target_ops and \
            "migrate-end" in target_ops

    def test_rights_fan_out_sees_shadow_copies_mid_migration(self):
        store, keys, slot, source, target = gdpr_fixture()
        migrator = SlotMigrator(store.cluster, slot, target)
        migrator.step(6)
        assert store.shards_of_subject("alice") == [source, target]
        report = right_of_access(store, "alice")
        assert len(report.records) == 3     # no double counting
        migrator.finish()

    def test_erasure_mid_migration_reaches_both_copies(self):
        """The acceptance criterion: an Art. 17 erasure issued while the
        slot migrates leaves zero recoverable copies on either shard."""
        store, keys, slot, source, target = gdpr_fixture()
        migrator = SlotMigrator(store.cluster, slot, target)
        migrator.step(3)    # some copies already on the target

        def erasures():
            return [[r.operation for r in shard.audit.records()]
                    .count("erase-subject") for shard in store.shards]

        before = erasures()
        receipt = right_to_erasure(store, "alice")
        # The receipt lists exactly the shards that recorded an erasure;
        # the source's delete-cascade may have evicted the target's
        # shadows before its own erasure ran (audited as migrate-evict).
        assert source in receipt.shards_touched
        assert [after - was for was, after in zip(before, erasures())] \
            == [int(index in receipt.shards_touched)
                for index in range(store.num_shards)]
        final = migrator.finish()
        # Bob's records made it; alice's are gone everywhere.
        assert store.keys_of_subject("bob")
        assert not store.keys_of_subject("alice")
        for shard in store.shards:
            for key in keys["alice"]:
                assert shard.kv.execute("GET", key) is None
                assert shard.index.get_metadata(key) is None
        # Crypto-erasure voided the subject's key: even residual AOF
        # ciphertext on the source is unreadable forever.
        assert receipt.crypto_erased
        with pytest.raises(KeyNotFoundError):
            store.keystore.cipher_for("alice", create=False)
        store.cluster.verify_audit_chains()
        assert "migrate-evict" in [
            r.operation for r in store.shards[target].audit.records()]

    def test_erasure_after_flip_still_complete(self):
        store, keys, slot, source, target = gdpr_fixture()
        SlotMigrator(store.cluster, slot, target).run()
        receipt = right_to_erasure(store, "alice")
        assert receipt.shards_touched == [target]
        assert not store.keys_of_subject("alice")
        assert store.keys_of_subject("bob")

    def test_new_records_mid_migration_are_born_on_target(self):
        store, keys, slot, source, target = gdpr_fixture()
        migrator = SlotMigrator(store.cluster, slot, target)
        migrator.step(2)
        newkey = "{gdpr}:carol:0"
        assert slot_for_key(newkey) == slot
        store.put(newkey, b"carol-data",
                  GDPRMetadata(owner="carol",
                               purposes=frozenset({"service"})))
        assert store.shards_of_subject("carol") == [target]
        migrator.finish()
        assert store.get(newkey).value == b"carol-data"

    def test_abort_leaves_gdpr_state_consistent(self):
        store, keys, slot, source, target = gdpr_fixture()
        migrator = SlotMigrator(store.cluster, slot, target)
        migrator.step(4)
        receipt = migrator.abort()
        assert receipt.aborted
        assert store.cluster.slots.shard_of_slot(slot) == source
        assert store.shards_of_subject("alice") == [source]
        assert len(right_of_access(store, "alice").records) == 3
        store.cluster.verify_audit_chains()

    def test_abort_repatriates_records_born_on_target(self):
        store, keys, slot, source, target = gdpr_fixture()
        migrator = SlotMigrator(store.cluster, slot, target)
        migrator.step(2)
        newkey = "{gdpr}:carol:0"
        store.put(newkey, b"carol-data",
                  GDPRMetadata(owner="carol",
                               purposes=frozenset({"service"})))
        assert store.shards_of_subject("carol") == [target]
        migrator.abort()
        assert store.shards_of_subject("carol") == [source]
        assert store.get(newkey).value == b"carol-data"
        assert store.shards[target].index.get_metadata(newkey) is None
        store.cluster.verify_audit_chains()
        assert "migrate-return" in [
            r.operation for r in store.shards[source].audit.records()]

    def test_receipt_reports_residual_source_ciphertext(self):
        store, keys, slot, source, target = gdpr_fixture()
        receipt = SlotMigrator(store.cluster, slot, target).run()
        # The source AOF still holds (sealed) bytes of the moved keys
        # until a rewrite: exactly the paper's section 4.3 concern.
        assert receipt.residual_in_source_aof
        store.shards[source].kv.rewrite_aof()
        assert not any(
            store.shards[source].kv.aof_log.read_all().find(
                key.encode()) >= 0
            for key in receipt.keys_moved)
