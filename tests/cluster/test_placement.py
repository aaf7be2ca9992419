"""Tests for skew-aware worker placement.

Covers the :class:`SlotPlacement` table (overrides, read splits,
version bumps, resize invalidation), the :class:`Rebalancer` (O(1)
per-slot load accounting, the top-N hot tracker, interval-stepped
decay, greedy LPT re-homing, the degenerate single-hot-slot read
split), the pool integration (rebalances apply at quiescence, reply
order survives, K=1 is immune), the autoscaler's rebalance rung, and
seeded determinism with placement on.
"""

import pytest

from repro.cluster import (
    Autoscaler,
    AutoscaleConfig,
    PlacementPolicy,
    Rebalancer,
    SlotPlacement,
    build_cluster,
    slot_for_key,
)
from repro.common.errors import ClusterError
from repro.ycsb import OpenLoopRunner, WORKLOAD_B

from test_workers import cpu_factory, make_pool_server, with_workers


class TestSlotPlacement:
    def test_default_is_slot_mod_k(self):
        placement = SlotPlacement(3)
        for slot in (0, 1, 5, 16383):
            assert placement.worker_of_slot(slot) == slot % 3
            assert placement.split_of_slot(slot) is None

    def test_assign_overrides_and_reverts(self):
        placement = SlotPlacement(2)
        placement.assign(4, 1)
        assert placement.worker_of_slot(4) == 1
        assert placement.overrides == {4: 1}
        # Assigning the default home drops the override entirely.
        placement.assign(4, 0)
        assert placement.overrides == {}
        assert placement.worker_of_slot(4) == 0

    def test_version_bumps_on_every_change(self):
        placement = SlotPlacement(2)
        before = placement.version
        placement.assign(4, 1)
        placement.split(3, (0,))
        placement.clear()
        placement.resize(4)
        assert placement.version == before + 4

    def test_split_always_includes_the_home_worker(self):
        placement = SlotPlacement(4)
        placement.split(5, (0, 2))        # home of slot 5 is worker 1
        assert placement.split_of_slot(5) == (0, 1, 2)

    def test_split_validation(self):
        placement = SlotPlacement(2)
        with pytest.raises(ClusterError):
            placement.split(3, (5,))       # unknown worker
        with pytest.raises(ClusterError):
            placement.split(3, (1,))       # fan collapses to the home
        with pytest.raises(ClusterError):
            placement.assign(3, 9)         # unknown worker
        with pytest.raises(ClusterError):
            placement.assign(100_000, 0)   # slot out of range

    def test_resize_drops_overrides_and_splits(self):
        placement = SlotPlacement(2)
        placement.assign(4, 1)
        placement.split(3, (0, 1))
        placement.resize(3)
        assert placement.overrides == {}
        assert placement.splits == {}
        assert placement.worker_of_slot(4) == 4 % 3

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            SlotPlacement(0)
        with pytest.raises(ValueError):
            SlotPlacement(2).resize(0)


class TestRebalancer:
    def test_note_accumulates_and_tracks_top_n(self):
        rebalancer = Rebalancer(SlotPlacement(2),
                                PlacementPolicy(hot_slots=2))
        for slot, billed in ((1, 5e-6), (2, 3e-6), (3, 9e-6),
                             (1, 5e-6)):
            rebalancer.note(slot, billed)
        assert rebalancer.loads == pytest.approx(
            {1: 1e-5, 2: 3e-6, 3: 9e-6})
        # Only the two heaviest slots survive in the hot tracker.
        assert set(rebalancer.hot) == {1, 3}

    def test_maybe_arm_rate_limits_and_decays(self):
        policy = PlacementPolicy(rebalance_interval=1e-3,
                                 slot_load_decay=0.5)
        rebalancer = Rebalancer(SlotPlacement(2), policy)
        rebalancer.note(0, 8e-6)          # both slots home to worker 0
        rebalancer.note(2, 8e-6)
        assert not rebalancer.maybe_arm(5e-4)   # interval not elapsed
        assert rebalancer.maybe_arm(2e-3)       # elapsed + imbalanced
        assert rebalancer.loads[0] == pytest.approx(4e-6)  # decayed
        assert not rebalancer.maybe_arm(2.1e-3)  # rate limited again

    def test_balanced_loads_do_not_arm(self):
        rebalancer = Rebalancer(SlotPlacement(2))
        rebalancer.note(0, 5e-6)          # worker 0
        rebalancer.note(1, 5e-6)          # worker 1
        assert not rebalancer.imbalanced()
        assert rebalancer.apply(0.0).moved == 0

    def test_apply_is_greedy_lpt(self):
        # Four slots all homed to worker 0 of 2, heaviest first lands
        # on the emptiest core: loads 8,6,2,1 -> {8,2} vs {6,1}.
        rebalancer = Rebalancer(SlotPlacement(2))
        for slot, load in ((0, 8e-6), (2, 6e-6), (4, 2e-6), (6, 1e-6)):
            rebalancer.note(slot, load)
        assert rebalancer.imbalanced()
        event = rebalancer.apply(0.0)
        assert event.moved > 0
        per_core = rebalancer.core_loads()
        assert max(per_core) == pytest.approx(9e-6)
        assert min(per_core) == pytest.approx(8e-6)

    def test_dominant_slot_gets_read_split(self):
        rebalancer = Rebalancer(SlotPlacement(2))
        rebalancer.note(5, 9e-6)          # > half the total load
        rebalancer.note(0, 1e-6)
        event = rebalancer.apply(0.0)
        assert event.split_slots == (5,)
        fan = rebalancer.placement.split_of_slot(5)
        assert fan is not None and len(fan) == 2
        # The split dilutes the dominant slot across the fan.
        assert not rebalancer.imbalanced()

    def test_single_worker_never_applies(self):
        rebalancer = Rebalancer(SlotPlacement(1))
        rebalancer.note(0, 1e-3)
        assert not rebalancer.imbalanced()
        assert rebalancer.apply(0.0) is None
        assert rebalancer.events == []


def _hot_key_stream(pool_opts, requests=120):
    """Hammer one key through a 2-core pool with placement enabled."""
    server, (conn, other), pool, _ = make_pool_server(
        workers=2, placement=PlacementPolicy(rebalance_interval=1e-4),
        **pool_opts)
    conn.call("SET", "hot", "v")
    for _ in range(requests):
        conn.send_command("GET", "hot")
        other.send_command("GET", "hot")
    server.scheduler.run_until_idle()
    return server, conn, pool


class TestPoolIntegration:
    def test_single_hot_key_read_splits_across_cores(self):
        _, conn, pool = _hot_key_stream({})
        assert pool.rebalances
        hot_slot = slot_for_key(b"hot")
        assert any(hot_slot in event.split_slots
                   for event in pool.rebalances)
        # Both cores actually served traffic for the one hot slot.
        assert sum(row["commands"] > 0
                   for row in pool.worker_rows()) == 2
        # Replies stayed correct and in order throughout.
        assert set(conn.replies) <= {"OK", b"v"}

    def test_writes_stay_pinned_under_a_split(self):
        server, conn, pool = _hot_key_stream({})
        # Freeze the rebalancer so the home cannot move mid-assert.
        pool.rebalancer._last_check = float("inf")
        home = pool.placement.worker_of_slot(slot_for_key(b"hot"))
        writes_before = [worker.commands for worker in pool.workers]
        conn.replies.clear()
        for number in range(10):
            conn.send_command("SET", "hot", number)
        server.scheduler.run_until_idle()
        served = [worker.commands - before for worker, before
                  in zip(pool.workers, writes_before)]
        assert served[home] == 10
        assert sum(served) == 10

    def test_request_rebalance_contract(self):
        # A huge interval keeps the pool from self-arming, so this
        # exercises the autoscaler-driven path in isolation.
        server, (conn, _), pool, _ = make_pool_server(
            workers=2,
            placement=PlacementPolicy(rebalance_interval=1e9))
        # Balanced (no load at all): nothing to arm, caller escalates.
        assert pool.request_rebalance() is False
        key = None
        for number in range(100):      # a key homed to worker 0
            candidate = f"k{number}"
            if slot_for_key(candidate.encode()) % 2 == 0:
                key = candidate
                break
        for _ in range(50):
            conn.send_command("INCR", key)
        server.scheduler.run_until_idle()
        assert pool.request_rebalance() is True
        server.scheduler.run_until_idle()
        assert pool.rebalances
        # One is already armed-and-applied; a balanced pool declines.
        pool.rebalancer.loads.clear()
        pool.rebalancer.hot.clear()
        assert pool.request_rebalance() is False

    def test_pool_without_placement_has_no_rebalancer(self):
        _, _, pool, _ = make_pool_server(workers=2)
        assert pool.placement is None
        assert pool.rebalancer is None
        assert pool.request_rebalance() is False
        assert pool.rebalances == []

    def test_single_worker_pool_never_rebalances(self):
        server, (conn, _), pool, _ = make_pool_server(
            workers=1, placement=PlacementPolicy(
                rebalance_interval=1e-4))
        for _ in range(60):
            conn.send_command("GET", "hot")
        server.scheduler.run_until_idle()
        assert pool.rebalances == []
        assert pool.request_rebalance() is False

    def test_resize_resets_the_placement_table(self):
        server, _, pool = _hot_key_stream({})
        assert pool.placement.splits or pool.placement.overrides
        pool.add_worker()
        server.scheduler.run_until_idle()
        assert pool.placement.num_workers == 3
        assert pool.placement.overrides == {}
        assert pool.placement.splits == {}


def _skewed_run(placement, seed=42, rate=100_000.0, ops=300):
    cluster = build_cluster(1, store_factory=cpu_factory, latency=10e-6,
                            workers=4, adaptive_batch=True,
                            placement=placement)
    spec = WORKLOAD_B.scaled(record_count=44, operation_count=ops)
    runner = OpenLoopRunner(cluster, spec, clients=8,
                            arrival_rate=rate, seed=seed)
    runner.preload()
    return cluster, runner.run(ops)


class TestBuildClusterAndDeterminism:
    def test_build_cluster_wires_placement(self):
        cluster, _ = _skewed_run(placement=True, ops=50)
        pool = cluster.nodes[0].pool
        assert pool.placement is not None
        assert isinstance(pool.config.placement, PlacementPolicy)

    def test_build_cluster_accepts_explicit_policy(self):
        policy = PlacementPolicy(hot_slots=4)
        cluster, _ = _skewed_run(placement=policy, ops=50)
        assert cluster.nodes[0].pool.config.placement is policy

    def test_placement_off_leaves_pool_static(self):
        cluster, _ = _skewed_run(placement=None, ops=50)
        assert cluster.nodes[0].pool.placement is None

    def test_same_seed_identical_reports_with_placement(self):
        _, one = _skewed_run(placement=True)
        _, two = _skewed_run(placement=True)
        assert with_workers(one) == with_workers(two)

    def test_placed_run_completes_everything(self):
        cluster, report = _skewed_run(placement=True)
        assert report.completed == 300
        assert report.failures == 0
        assert cluster.nodes[0].pool.rebalances


class _FakeTarget:
    """An autoscale target whose rebalance rung can be scripted."""

    def __init__(self, signal, rebalances):
        self._signal = signal
        self._rebalances = rebalances
        self.num_workers = 2
        self.raised = 0

    def queueing_delay_ewma(self):
        return self._signal

    def request_rebalance(self):
        return self._rebalances

    def add_worker(self):
        self.raised += 1
        self.num_workers += 1
        return self.num_workers


class TestAutoscalerRebalanceRung:
    def _scaler(self, target):
        from repro.common.clock import SimClock
        return Autoscaler(SimClock(), [target],
                          AutoscaleConfig(high_delay=100e-6,
                                          max_workers=4))

    def test_rebalance_preempts_worker_raise(self):
        target = _FakeTarget(signal=5e-3, rebalances=True)
        event = self._scaler(target).check()
        assert event.action == "rebalance"
        assert target.raised == 0

    def test_declined_rebalance_escalates_to_worker_raise(self):
        target = _FakeTarget(signal=5e-3, rebalances=False)
        event = self._scaler(target).check()
        assert event.action == "worker-raise"
        assert target.raised == 1

    def test_real_pool_rung_fires_on_skew(self):
        cluster, _ = _skewed_run(placement=True, ops=60,
                                 rate=150_000.0)
        pool = cluster.nodes[0].pool
        scaler = Autoscaler(cluster.clock, [pool],
                            AutoscaleConfig(high_delay=1e-6,
                                            max_workers=4))
        # Load the rebalancer with a lopsided picture, then check().
        pool.rebalancer.loads.clear()
        pool.rebalancer.hot.clear()
        pool.rebalancer.note(0, 1e-3)
        pool._rebalance_pending = False
        event = scaler.check()
        assert event is not None and event.action == "rebalance"
