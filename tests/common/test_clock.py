"""Tests for clock abstractions."""

import pytest

from repro.common.clock import (
    ShardClock,
    SimClock,
    WorkerClock,
)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(start=5.0).now() == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance_moves_time(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_advance_zero_is_noop(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now() == 0.0

    def test_advance_backwards_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_sleep_until_future(self):
        clock = SimClock()
        clock.sleep_until(3.0)
        assert clock.now() == 3.0

    def test_sleep_until_past_is_noop(self):
        clock = SimClock(start=5.0)
        clock.sleep_until(3.0)
        assert clock.now() == 5.0

    def test_timer_fires_during_advance(self):
        clock = SimClock()
        fired = []
        clock.schedule_at(1.0, lambda: fired.append(clock.now()))
        clock.advance(2.0)
        assert fired == [1.0]
        assert clock.now() == 2.0

    def test_timer_not_fired_before_due(self):
        clock = SimClock()
        fired = []
        clock.schedule_at(5.0, lambda: fired.append(True))
        clock.advance(4.999)
        assert fired == []
        assert clock.pending_timers() == 1

    def test_timers_fire_in_order(self):
        clock = SimClock()
        order = []
        clock.schedule_at(2.0, lambda: order.append("b"))
        clock.schedule_at(1.0, lambda: order.append("a"))
        clock.schedule_at(3.0, lambda: order.append("c"))
        clock.advance(10.0)
        assert order == ["a", "b", "c"]

    def test_schedule_after_relative(self):
        clock = SimClock(start=10.0)
        fired = []
        clock.schedule_after(1.0, lambda: fired.append(clock.now()))
        clock.advance(1.5)
        assert fired == [11.0]

    def test_timer_in_past_rejected(self):
        clock = SimClock(start=5.0)
        with pytest.raises(ValueError):
            clock.schedule_at(4.0, lambda: None)

    def test_same_deadline_timers_fifo(self):
        clock = SimClock()
        order = []
        clock.schedule_at(1.0, lambda: order.append(1))
        clock.schedule_at(1.0, lambda: order.append(2))
        clock.advance(1.0)
        assert order == [1, 2]


class TestEventScheduler:
    def test_equal_timestamps_fire_in_schedule_order(self):
        clock = SimClock()
        order = []
        for tag in ("a", "b", "c", "d"):
            clock.schedule_at(1.0, lambda tag=tag: order.append(tag))
        clock.run_until_idle()
        assert order == ["a", "b", "c", "d"]

    def test_run_next_single_steps(self):
        clock = SimClock()
        fired = []
        clock.schedule_at(2.0, lambda: fired.append(2))
        clock.schedule_at(1.0, lambda: fired.append(1))
        assert clock.run_next() is True
        assert fired == [1]
        assert clock.now() == 1.0
        assert clock.run_next() is True
        assert fired == [1, 2]
        assert clock.run_next() is False

    def test_cancelled_event_never_fires(self):
        clock = SimClock()
        fired = []
        handle = clock.schedule_at(1.0, lambda: fired.append("no"))
        clock.schedule_at(2.0, lambda: fired.append("yes"))
        assert handle.cancel() is True
        assert handle.cancel() is False     # idempotent
        clock.run_until_idle()
        assert fired == ["yes"]
        assert clock.pending_timers() == 0

    def test_cancelled_timer_skipped_by_advance(self):
        clock = SimClock()
        fired = []
        handle = clock.schedule_at(1.0, lambda: fired.append(True))
        handle.cancel()
        clock.advance(2.0)
        assert fired == []

    def test_daemon_events_do_not_keep_loop_alive(self):
        clock = SimClock()
        beats = []

        def heartbeat():
            beats.append(clock.now())
            clock.schedule_after(1.0, heartbeat, daemon=True)

        clock.schedule_after(1.0, heartbeat, daemon=True)
        clock.schedule_at(3.5, lambda: None)      # the only real work
        clock.run_until_idle()
        # The daemon fired while real work was pending, then stopped
        # keeping the loop alive.
        assert beats == [1.0, 2.0, 3.0]
        assert clock.now() == 3.5

    def test_run_until_idle_with_deadline(self):
        clock = SimClock()
        fired = []
        clock.schedule_at(1.0, lambda: fired.append(1))
        clock.schedule_at(5.0, lambda: fired.append(5))
        ran = clock.run_until_idle(deadline=2.0)
        assert ran == 1
        assert fired == [1]
        assert clock.now() == 2.0             # lands exactly on deadline
        clock.run_until_idle()
        assert fired == [1, 5]

    def test_events_scheduled_during_advance_fire_in_window(self):
        clock = SimClock()
        order = []

        def first():
            order.append(("first", clock.now()))
            clock.schedule_at(1.5, lambda: order.append(
                ("nested", clock.now())))

        clock.schedule_at(1.0, first)
        clock.advance(2.0)
        assert order == [("first", 1.0), ("nested", 1.5)]
        assert clock.now() == 2.0

    def test_nested_advance_never_moves_backwards(self):
        clock = SimClock()

        def overshoot():
            clock.advance(5.0)    # a service charge inside the window

        clock.schedule_at(1.0, overshoot)
        clock.advance(2.0)
        assert clock.now() == 6.0

    def test_identical_runs_produce_identical_traces(self):
        import random

        def run():
            clock = SimClock()
            trace = clock.enable_trace()
            rng = random.Random(7)

            def burst():
                for _ in range(3):
                    delay = rng.random()
                    clock.schedule_after(delay, lambda: None,
                                         label=f"work-{delay:.6f}")

            clock.schedule_at(0.5, burst, label="burst")
            clock.schedule_at(1.0, burst, label="burst")
            clock.run_until_idle()
            return trace

        assert run() == run()

    def test_pending_live_events_excludes_daemons(self):
        clock = SimClock()
        clock.schedule_at(1.0, lambda: None, daemon=True)
        clock.schedule_at(1.0, lambda: None)
        assert clock.pending_live_events() == 1
        assert clock.pending_timers() == 2


class TestRecurringTimer:
    def test_events_match_a_hand_written_reschedule(self):
        """Callback first, then the next event: (when, seq, label) are
        those of the ``fire(); reschedule`` closure it replaces."""
        def run(recurring):
            clock = SimClock()
            trace = clock.enable_trace()
            fired = []

            def work():
                fired.append((clock.now(), clock._timer_seq))
                clock.schedule_after(0.1, lambda: None, label="work")

            if recurring:
                clock.every(0.5, work, label="tick")
            else:
                def fire():
                    work()
                    clock.schedule_after(0.5, fire, label="tick",
                                         daemon=True)
                clock.schedule_after(0.5, fire, label="tick", daemon=True)
            clock.advance(2.2)
            return fired, trace

        assert run(True) == run(False)
        assert len(run(True)[0]) == 4

    def test_daemon_and_cancellable_from_inside(self):
        clock = SimClock()
        fired = []

        def work():
            fired.append(clock.now())
            if len(fired) == 3:
                timer.cancel()

        timer = clock.every(1.0, work, label="tick")
        assert timer.active
        assert clock.run_until_idle() == 0        # daemon: not alive alone
        clock.advance(10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert not timer.active
        assert clock.pending_timers() == 0
        assert timer.cancel() is False

    def test_a_raising_callback_keeps_its_next_firing(self):
        clock = SimClock()
        fired = []

        def work():
            fired.append(clock.now())
            if len(fired) == 1:
                raise RuntimeError("fsync failed")

        timer = clock.every(1.0, work, label="tick")
        with pytest.raises(RuntimeError):
            clock.advance(1.5)
        assert timer.active and clock.pending_timers() == 1
        clock.advance(2.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_needs_a_positive_interval(self):
        with pytest.raises(ValueError):
            SimClock().every(0.0, lambda: None, label="tick")


class TestWorkerClock:
    def test_advance_bills_busy_time(self):
        worker = WorkerClock(0, 1.0)
        worker.advance(0.5)
        assert worker.now() == 1.5
        assert worker.busy_seconds == 0.5

    def test_idle_and_sleep_are_not_billed(self):
        worker = WorkerClock(0, 0.0)
        worker.idle_until(2.0)
        worker.sleep_until(3.0)
        assert worker.now() == 3.0
        assert worker.busy_seconds == 0.0

    def test_idle_never_moves_backwards(self):
        worker = WorkerClock(0, 5.0)
        worker.idle_until(1.0)
        assert worker.now() == 5.0

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            WorkerClock(0, 0.0).advance(-1.0)


class TestShardClock:
    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            ShardClock(workers=0)

    def test_recurring_work_runs_on_the_scheduler(self):
        scheduler = SimClock()
        shard = ShardClock(workers=2, scheduler=scheduler)
        ran = []
        shard.run_background = lambda work: ran.append("billed") or work()
        shard.every(1.0, lambda: ran.append(scheduler.now()), label="t")
        scheduler.advance(2.5)
        assert ran == ["billed", 1.0, "billed", 2.0]

    def test_recurring_work_needs_a_scheduler(self):
        with pytest.raises(RuntimeError):
            ShardClock().every(1.0, lambda: None, label="t")

    def test_active_worker_takes_the_charges(self):
        shard = ShardClock(workers=3)
        shard.activate(shard.worker(1))
        shard.advance(0.2)
        assert shard.now() == 0.2
        shard.release()
        assert [w.busy_seconds for w in shard.workers] == [0.0, 0.2, 0.0]

    def test_no_active_worker_charges_all_cores(self):
        """Stop-the-world: direct calls and barriers occupy the shard."""
        shard = ShardClock(workers=3)
        shard.advance(0.1)
        assert all(w.busy_seconds == 0.1 for w in shard.workers)
        assert shard.busy_seconds() == pytest.approx(0.3)

    def test_now_reports_the_frontier(self):
        shard = ShardClock(workers=2)
        shard.activate(shard.worker(0))
        shard.advance(1.0)
        shard.release()
        assert shard.now() == 1.0          # max across cores
        shard.activate(shard.worker(1))
        assert shard.now() == 0.0          # the active core's own time
        shard.release()

    def test_sleep_without_active_worker_idles_every_core(self):
        shard = ShardClock(workers=2)
        shard.sleep_until(4.0)
        assert all(w.now() == 4.0 for w in shard.workers)
        assert shard.busy_seconds() == 0.0

    def test_double_activate_rejected(self):
        shard = ShardClock(workers=2)
        shard.activate(shard.worker(0))
        with pytest.raises(RuntimeError):
            shard.activate(shard.worker(1))

    def test_add_worker_joins_at_given_start(self):
        shard = ShardClock(workers=1)
        shard.advance(2.0)
        worker = shard.add_worker(2.0)
        assert worker.index == 1
        assert worker.now() == 2.0
        assert worker.busy_seconds == 0.0
        assert shard.num_workers == 2

    def test_single_worker_matches_plain_meter(self):
        """workers=1 is behaviourally identical to one SimClock meter --
        the basis of the worker-count-1 regression guarantee."""
        shard = ShardClock(workers=1)
        plain = SimClock()
        for step in (0.1, 0.25, 0.0):
            shard.advance(step)
            plain.advance(step)
        shard.sleep_until(1.0)
        plain.sleep_until(1.0)
        assert shard.now() == plain.now()
