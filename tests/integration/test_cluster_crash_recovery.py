"""Integration: one shard crashes and recovers from its AOF mid-workload;
the other shards' data, audit chains, and a subsequent cross-shard
Art. 17 erasure are unaffected."""

import pytest

from repro.common.clock import SimClock
from repro.cluster import GDPRClient, build_cluster, gdpr_shards
from repro.device.faults import FaultPlan
from repro.gdpr import GDPRMetadata
from repro.gdpr.rights import right_to_erasure
from repro.kvstore import KeyValueStore, StoreConfig

VICTIM = 1


def make_cluster(num_shards=3):
    """Shards fsync every AOF record so a power loss is recoverable to
    the last command (the strict end of the paper's durability spectrum)."""
    clock = SimClock()

    def kv_factory(index, kv_clock):
        return KeyValueStore(
            StoreConfig(appendonly=True, appendfsync="always",
                        aof_log_reads=True),
            clock=kv_clock)

    return GDPRClient(build_cluster(
        num_shards, clock=clock,
        store_factory=gdpr_shards(kv_factory=kv_factory)))


def run_workload(store, count=36):
    placement = {}
    for number in range(count):
        owner = "alice" if number % 3 == 0 else "bob"
        key = f"user:{number}"
        store.put(key, f"value-{number}".encode(),
                  GDPRMetadata(owner=owner,
                               purposes=frozenset({"service"})))
        placement.setdefault(store.shard_for(key), []).append(key)
    return placement


class TestClusterCrashRecovery:
    def setup_method(self):
        self.store = make_cluster()
        self.placement = run_workload(self.store)
        # The workload must populate every shard, including the victim.
        assert set(self.placement) == {0, 1, 2}
        victim = self.store.shards[VICTIM]
        FaultPlan(victim.kv.aof_log, victim.audit.log).power_loss()

    def test_recovery_restores_victim_and_spares_others(self):
        replayed = self.store.cluster.recover_shard(VICTIM)
        assert replayed > 0
        # The replacement shard is rebuilt through the same kv factory,
        # keeping the configured durability policy.
        assert self.store.shards[VICTIM].kv.config.appendfsync == "always"
        for shard, keys in self.placement.items():
            for key in keys:
                record = self.store.get(key)
                number = int(key.split(":")[1])
                assert record.value == f"value-{number}".encode()

    def test_other_shards_audit_chains_untouched(self):
        counts_before = {
            index: self.store.shards[index].audit.record_count
            for index in (0, 2)}
        self.store.cluster.recover_shard(VICTIM)
        verified = self.store.cluster.verify_audit_chains()
        for index in (0, 2):
            assert verified[index] >= counts_before[index] > 0

    def test_cross_shard_erasure_after_recovery(self):
        self.store.cluster.recover_shard(VICTIM)
        alice_keys = self.store.keys_of_subject("alice")
        assert any(self.store.shard_for(key) == VICTIM
                   for key in alice_keys)
        receipt = right_to_erasure(self.store, "alice")
        assert sorted(receipt.keys_erased) == alice_keys
        assert receipt.crypto_erased
        assert not receipt.residual_in_aof
        for key in alice_keys:
            with pytest.raises(KeyError):
                self.store.get(key)
        # Bob's records survive everywhere, chains still verify.
        for key in self.store.keys_of_subject("bob"):
            assert self.store.get(key).metadata.owner == "bob"
        assert all(count >= 0 for count
                   in self.store.cluster.verify_audit_chains().values())

    def test_unrecovered_crash_only_hurts_victim(self):
        # Before recovery, the other shards keep serving.
        for shard, keys in self.placement.items():
            if shard == VICTIM:
                continue
            for key in keys:
                assert self.store.get(key) is not None


class TestMidWorkloadDurability:
    def test_everysec_victim_recovers_to_fsync_horizon(self):
        """With everysec fsync the victim loses at most the last window;
        recovery still leaves every other shard complete."""
        clock = SimClock()

        def kv_factory(index, kv_clock):
            return KeyValueStore(
                StoreConfig(appendonly=True, appendfsync="everysec",
                            aof_log_reads=True),
                clock=kv_clock)

        store = GDPRClient(build_cluster(
            3, clock=clock, store_factory=gdpr_shards(kv_factory=kv_factory)))
        placement = run_workload(store, count=24)
        clock.advance(2.0)
        store.cluster.sync()  # fsync horizon covers the whole prefix
        late_key = "late:key"
        store.put(late_key, b"late",
                  GDPRMetadata(owner="carol",
                               purposes=frozenset({"service"})))
        victim = store.shard_for(late_key)
        shard = store.shards[victim]
        FaultPlan(shard.kv.aof_log, shard.audit.log).power_loss()
        store.cluster.recover_shard(victim)
        # The unsynced late write is gone; every pre-horizon record and
        # every other shard's record survives.
        with pytest.raises(KeyError):
            store.get(late_key)
        for shard, keys in placement.items():
            for key in keys:
                assert store.get(key) is not None


def test_a_recovered_shard_s_old_device_timers_stop():
    """The crashed node's everysec device timer goes with its cron: after
    a recovery the scheduler holds one AOF timer per live shard."""
    clock = SimClock()

    def kv_factory(index, kv_clock):
        return KeyValueStore(StoreConfig(appendonly=True), clock=kv_clock)

    cluster = build_cluster(2, clock=clock, store_factory=kv_factory)
    cluster.call("SET", "k", "v")
    old = cluster.nodes[VICTIM]
    cluster.recover_shard(VICTIM)
    assert not any(timer.active for timer in old.clock.timers)
    labels = sorted(handle.label for _, _, handle in clock._events
                    if handle.active)
    assert labels == ["appendonly.aof-timer"] * 2 + ["server-cron"] * 2
