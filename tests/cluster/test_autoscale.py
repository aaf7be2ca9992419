"""Tests for the queueing-delay autoscaler.

The escalation ladder (worker raise -> scale-out), its rate limits, the
daemon timer's liveness rules, and the two integrations: a WorkerPool
whose p99 recovers after a live worker raise, and a cluster of GDPR
shards that adds a shard and rebalances -- with Art. 17 erasure verified
while the scale-out migrations are still in flight.
"""

import pytest

from repro.cluster import (
    Autoscaler,
    AutoscaleConfig,
    GDPRClient,
    build_cluster,
    gdpr_shards,
    slot_for_key,
)
from repro.common.clock import SimClock
from repro.common.errors import KeyErasedError, UnknownSubjectError
from repro.gdpr import GDPRMetadata
from repro.gdpr.rights import right_of_access, right_to_erasure
from repro.kvstore import KeyValueStore, StoreConfig
from repro.ycsb import OpenLoopRunner, WORKLOAD_B

CPU = 25e-6


def cpu_factory(index, clock):
    return KeyValueStore(StoreConfig(command_cpu_cost=CPU, seed=index),
                         clock=clock)


class FakeTarget:
    """A pool-shaped target with a dial-a-value EWMA."""

    def __init__(self, ewma=0.0, workers=1):
        self.ewma = ewma
        self._workers = workers
        self.raises = 0
        self.sheds = 0

    def queueing_delay_ewma(self):
        return self.ewma

    @property
    def num_workers(self):
        return self._workers

    def add_worker(self):
        self._workers += 1
        self.raises += 1
        return self._workers

    def remove_worker(self):
        self._workers -= 1
        self.sheds += 1
        return self._workers


def make_scaler(targets, scale_outs=None, **config):
    clock = SimClock()
    calls = [] if scale_outs is None else scale_outs

    def spill(scaler, index):
        calls.append(index)
        return f"spill-{index}"

    scaler = Autoscaler(clock, targets,
                        AutoscaleConfig(**config), scale_out=spill)
    return clock, scaler, calls


class TestEscalationLadder:
    def test_cold_target_triggers_nothing(self):
        _, scaler, calls = make_scaler([FakeTarget(ewma=1e-6)])
        assert scaler.check() is None
        assert scaler.events == [] and calls == []

    def test_hot_target_with_headroom_raises_workers(self):
        target = FakeTarget(ewma=1e-3)
        _, scaler, calls = make_scaler([target], max_workers=4)
        event = scaler.check()
        assert event.action == "worker-raise"
        assert event.signal == 1e-3
        assert target.raises == 1
        assert "2" in event.detail
        assert calls == []

    def test_hot_target_at_max_workers_scales_out(self):
        target = FakeTarget(ewma=1e-3, workers=4)
        _, scaler, calls = make_scaler([target], max_workers=4)
        event = scaler.check()
        assert event.action == "scale-out"
        assert event.detail == "spill-0"
        assert calls == [0]
        assert target.raises == 0

    def test_scale_outs_capped(self):
        target = FakeTarget(ewma=1e-3, workers=4)
        clock, scaler, calls = make_scaler([target], max_workers=4,
                                           cooldown=0.0,
                                           max_scale_outs=1)
        assert scaler.check().action == "scale-out"
        clock.advance(1.0)
        assert scaler.check() is None
        assert calls == [0]

    def test_cooldown_rate_limits_per_target(self):
        target = FakeTarget(ewma=1e-3)
        clock, scaler, _ = make_scaler([target], max_workers=8,
                                       cooldown=0.5)
        assert scaler.check().action == "worker-raise"
        clock.advance(0.1)
        assert scaler.check() is None           # still cooling down
        clock.advance(0.5)
        assert scaler.check().action == "worker-raise"
        assert target.num_workers == 3

    def test_one_action_per_check(self):
        targets = [FakeTarget(ewma=1e-3), FakeTarget(ewma=1e-3)]
        clock, scaler, _ = make_scaler(targets, max_workers=4,
                                       cooldown=10.0)
        first = scaler.check()
        assert first.target == 0
        # The second hot target gets the *next* check; target 0 is in
        # cooldown by then.
        second = scaler.check()
        assert second.target == 1
        assert [t.raises for t in targets] == [1, 1]

    def test_poolless_target_goes_straight_to_scale_out(self):
        class Signal:        # a saturation signal with no worker pool
            def queueing_delay_ewma(self):
                return 5e-3

        _, scaler, calls = make_scaler([Signal()])
        assert scaler.check().action == "scale-out"
        assert calls == [0]

    def test_no_hook_and_no_headroom_means_no_action(self):
        target = FakeTarget(ewma=1e-3, workers=4)
        scaler = Autoscaler(SimClock(), [target],
                            AutoscaleConfig(max_workers=4))
        assert scaler.check() is None

    def test_rejects_non_scheduling_clock(self):
        from repro.common.clock import WallClock
        with pytest.raises(ValueError):
            Autoscaler(WallClock(), [])


class TestScaleDown:
    def test_disabled_by_default(self):
        target = FakeTarget(ewma=1e-6, workers=4)
        clock, scaler, _ = make_scaler([target])
        assert scaler.check() is None
        clock.advance(10.0)
        assert scaler.check() is None
        assert target.sheds == 0

    def test_shed_after_full_cold_window(self):
        target = FakeTarget(ewma=1e-6, workers=3)
        clock, scaler, _ = make_scaler([target], low_delay=50e-6,
                                       cooldown=0.5)
        # First observation starts the cold streak; not actionable yet.
        assert scaler.check() is None
        clock.advance(0.6)
        event = scaler.check()
        assert event.action == "worker-shed"
        assert "2" in event.detail
        assert target.sheds == 1 and target.num_workers == 2

    def test_floor_at_one_worker(self):
        target = FakeTarget(ewma=1e-6, workers=1)
        clock, scaler, _ = make_scaler([target], low_delay=50e-6,
                                       cooldown=0.1)
        assert scaler.check() is None
        clock.advance(1.0)
        assert scaler.check() is None
        assert target.sheds == 0

    def test_warm_sample_resets_the_streak(self):
        target = FakeTarget(ewma=1e-6, workers=2)
        clock, scaler, _ = make_scaler([target], low_delay=50e-6,
                                       high_delay=300e-6, cooldown=0.5)
        assert scaler.check() is None           # streak starts
        clock.advance(0.3)
        target.ewma = 100e-6                    # warm (but not hot)
        assert scaler.check() is None           # streak resets
        clock.advance(0.3)
        target.ewma = 1e-6
        assert scaler.check() is None           # new streak, just begun
        clock.advance(0.3)
        assert scaler.check() is None           # 0.3 cold < cooldown
        clock.advance(0.3)
        assert scaler.check().action == "worker-shed"

    def test_each_shed_needs_a_fresh_streak(self):
        target = FakeTarget(ewma=1e-6, workers=4)
        clock, scaler, _ = make_scaler([target], low_delay=50e-6,
                                       cooldown=0.5)
        scaler.check()
        clock.advance(0.6)
        assert scaler.check().action == "worker-shed"
        clock.advance(0.6)          # past the action cooldown, but the
        assert scaler.check() is None   # streak restarted at the shed
        clock.advance(0.6)
        assert scaler.check().action == "worker-shed"
        assert target.num_workers == 2


class TestDaemonTimer:
    def test_checks_ride_live_events_without_keeping_loop_alive(self):
        clock, scaler, _ = make_scaler([FakeTarget()], interval=1e-3)
        scaler.start()
        # A finite amount of foreground work...
        clock.schedule_after(5.5e-3, lambda: None, label="work")
        clock.run_until_idle()
        # ...carried ~5 daemon checks, and the loop still terminated.
        assert 4 <= scaler.checks <= 6
        assert clock.pending_live_events() == 0

    def test_stop_cancels_the_timer(self):
        clock, scaler, _ = make_scaler([FakeTarget()], interval=1e-3)
        scaler.start()
        clock.schedule_after(2.5e-3, lambda: None, label="work")
        clock.run_until_idle()
        seen = scaler.checks
        scaler.stop()
        clock.schedule_after(5e-3, lambda: None, label="work")
        clock.run_until_idle()
        assert scaler.checks == seen

    def test_start_is_idempotent(self):
        clock, scaler, _ = make_scaler([FakeTarget()], interval=1e-3)
        scaler.start()
        scaler.start()
        clock.schedule_after(1.5e-3, lambda: None, label="work")
        clock.run_until_idle()
        assert scaler.checks == 1


class TestWorkerPoolIntegration:
    def test_ewma_crossing_raises_workers_and_p99_recovers(self):
        cluster = build_cluster(1, store_factory=cpu_factory, latency=10e-6,
                                workers=1)
        pool = cluster.nodes[0].pool
        scaler = Autoscaler(
            cluster.clock, [pool],
            AutoscaleConfig(interval=1e-3, high_delay=300e-6,
                            max_workers=4, cooldown=2e-3))
        spec = WORKLOAD_B.scaled(record_count=60, operation_count=900)
        runner = OpenLoopRunner(cluster, spec, clients=16,
                                arrival_rate=70_000.0, seed=42)
        runner.preload()
        scaler.start()
        hot = runner.run(300)
        assert pool.num_workers > 1
        assert any(event.action == "worker-raise"
                   for event in scaler.events)
        recovered = runner.run(300)
        assert recovered.latency.percentile(99) \
            < hot.latency.percentile(99)
        assert recovered.throughput > hot.throughput
        scaler.stop()


class TestShardedStoreScaleOut:
    def _populated(self, num_shards=2, keys=24):
        store = GDPRClient(build_cluster(num_shards, clock=SimClock(),
                                         store_factory=gdpr_shards()))
        for number in range(keys):
            owner = "alice" if number % 2 == 0 else "bob"
            store.put(f"user:{number}", f"value-{number}".encode(),
                      GDPRMetadata(owner=owner,
                                   purposes=frozenset({"service"})))
        return store

    def test_default_scale_out_adds_shard_and_rebalances(self):
        store = self._populated()
        hot = FakeTarget(ewma=0.0, workers=4)
        scaler = store.cluster.attach_autoscaler([hot], start=False)
        assert scaler.check() is None
        hot.ewma = 1e-3
        event = scaler.check()
        assert event.action == "scale-out"
        assert "shard-add -> 2" in event.detail
        assert store.num_shards == 3
        # The rebalance was scheduled drive=False: migrations are live
        # events still in flight right now.
        assert store.cluster.clock.pending_live_events() > 0
        store.cluster.clock.run_until_idle()
        moved = [key for key in store.shards[2].index.keys()]
        assert moved    # the new shard actually took keys

    def test_erasure_guarantees_hold_mid_scale_out(self):
        """Art. 17 lands while the scale-out migrations are mid-flight:
        every alice record is erased everywhere (no shadow copy on the
        new shard revives one), bob's survive, audit chains verify on
        all three shards."""
        store = self._populated()
        alice_keys = store.keys_of_subject("alice")
        scaler = store.cluster.attach_autoscaler(
            [FakeTarget(ewma=1e-3, workers=4)], start=False)
        assert scaler.check().action == "scale-out"
        assert store.cluster.clock.pending_live_events() > 0
        receipt = right_to_erasure(store, "alice")  # mid-migration
        assert sorted(receipt.keys_erased) == sorted(alice_keys)
        store.cluster.clock.run_until_idle()                # migrations finish
        assert not store.subject_exists("alice")
        for key in alice_keys:
            for shard in store.shards:
                assert key not in shard.index.keys()
            with pytest.raises(KeyError):
                store.get(key)
        with pytest.raises(UnknownSubjectError):
            right_of_access(store, "alice")
        # The shared keystore remembers the erased id cluster-wide: the
        # grown topology refuses to resurrect the subject.
        with pytest.raises(KeyErasedError):
            store.put("user:999", b"new",
                      GDPRMetadata(owner="alice",
                                   purposes=frozenset({"service"})))
        # The surviving subject still spans the grown topology intact.
        bob_keys = store.keys_of_subject("bob")
        for key in bob_keys:
            assert store.get(key).value == \
                f"value-{key.split(':')[1]}".encode()
        verified = store.cluster.verify_audit_chains()
        assert set(verified) == {0, 1, 2}

    def test_autoscaler_daemon_drives_scale_out_under_live_events(self):
        store = self._populated()
        store.cluster.attach_autoscaler(
            [FakeTarget(ewma=1e-3, workers=4)],
            config=AutoscaleConfig(interval=1e-3, high_delay=300e-6))
        store.cluster.clock.schedule_after(3.5e-3, lambda: None, label="work")
        store.cluster.clock.run_until_idle()
        assert store.num_shards == 3
        keys = {index: len(list(shard.index.keys()))
                for index, shard in enumerate(store.shards)}
        assert keys[2] > 0

    def test_pool_shaped_signals_pass_through(self):
        store = self._populated()
        probe = FakeTarget(ewma=0.0)
        scaler = store.cluster.attach_autoscaler([probe], start=False)
        assert scaler.targets[0] is probe
