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
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieringConfig
from tests.support import crashpoints

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
        self.audited = self.store.cluster.verify_audit_chains()
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

    def test_every_shard_keeps_its_audit_history(self):
        """Regression: the recovered shard's audit log started on a new
        device and verified no record; it reopens the shard's own audit
        device, whose chain keeps verifying as puts go on, and the
        other shards' chains are untouched."""
        self.store.cluster.recover_shard(VICTIM)
        recovered = self.store.cluster.verify_audit_chains()
        for index in (0, 1, 2):
            assert recovered[index] >= self.audited[index] > 0
        placement = run_workload(self.store)
        assert self.store.cluster.verify_audit_chains()[VICTIM] \
            == recovered[VICTIM] + len(placement[VICTIM])

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


def test_a_shard_without_a_log_is_refused_before_anything_stops():
    """A store with no AOF has nothing to recover from: the refusal
    comes first, and the node it names keeps serving with its cron."""
    cluster = build_cluster(2)
    cluster.call("SET", "k", "v")
    old = cluster.nodes[VICTIM]
    with pytest.raises(ValueError, match="no AOF"):
        cluster.recover_shard(VICTIM)
    assert cluster.nodes[VICTIM] is old
    assert old.server._cron_handle is not None
    assert cluster.call("GET", "k") == b"v"


@pytest.mark.parametrize("tiering", [None, TieringConfig(
    demote_idle_after=4, demote_interval=1, segment_max_records=4)],
    ids=["plain", "tiered"])
@pytest.mark.parametrize("kv_factory", [
    None, lambda index, clock: RelationalStore(SqlConfig(seed=index),
                                               clock=clock)],
    ids=["redislike", "relational"])
def test_a_recovery_cut_anywhere_recovers_as_an_uncut_one(kv_factory,
                                                            tiering):
    """Power cut at every device step of ``recover_shard`` itself, or
    right after it returns: a second recovery leaves the keys, their
    values and every shard's verified audit chain as one recovery that
    was not cut and lost no power.  The crashed process left a torn
    record on the engine log and a torn line on the audit device, so
    the recovery has cuts of its own to make.  (The state's reads append
    audit records, so a second reading is not the first: no
    ``restarts_agree`` here.)"""
    def build():
        store = GDPRClient(build_cluster(2, store_factory=gdpr_shards(
            kv_factory=kv_factory, tiering=tiering)))
        run_workload(store, count=12)
        store.clock.advance(10)         # everysec fsyncs; idle keys demote
        run_workload(store, count=16)
        shard = store.shards[0]
        for log, torn in ((shard.kv.aof_log, b"*3\r\n$3\r\nSET\r\n$4\r\nus"),
                          (shard.audit.log, b'{"seq": ')):
            log.append(torn)
            log.flush()
        return store

    def state(store):
        chains = store.cluster.verify_audit_chains()
        return chains, {key: store.get(key).value for shard in store.shards
                        for key in shard.index.keys()}

    def devices(store):
        shard = store.shards[0]
        return [shard.kv.aof_log, shard.audit.log] + (
            [shard.kv.cold.device] if tiering else [])

    def recovered(store):
        store.cluster.recover_shard(0)
        return store

    expected = state(recovered(build()))
    assert len(expected[1]) == 16
    points = list(crashpoints(build, recovered, devices, recovered))
    assert len(points) > 1
    for point in points:
        assert state(point.recovered) == expected, point.lost
