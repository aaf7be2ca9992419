"""Tests for async replication and the erasure-propagation horizon."""

import pytest

from repro.common.clock import ShardClock, SimClock
from repro.kvstore import KeyValueStore, ReplicationManager, StoreConfig
from tests.support import py_calls


def make_primary(clock=None, **config):
    clock = clock if clock is not None else SimClock()
    return KeyValueStore(StoreConfig(**config), clock=clock), clock


class TestBasicReplication:
    def test_write_reaches_replica(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.010)
        primary.execute("SET", "k", "v")
        assert link.replica.execute("GET", "k") is None  # still in flight
        clock.advance(0.011)               # its delivery event fired
        assert link.replica.execute("GET", "k") == b"v"

    def test_reads_not_replicated(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.0)
        primary.execute("SET", "k", "v")
        primary.execute("GET", "k")
        clock.advance(0)                   # a zero delay lands "now"
        assert link.stats.commands_applied == 1

    def test_failed_writes_not_replicated(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.0)
        primary.execute("SET", "k", "v")
        primary.execute("SET", "k", "w", "NX")  # no-op
        clock.advance(0)
        assert link.stats.commands_applied == 1
        assert link.replica.execute("GET", "k") == b"v"

    def test_command_order_preserved(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.001)
        for i in range(10):
            primary.execute("APPEND", "seq", str(i))
        clock.advance(0.01)
        assert link.replica.execute("GET", "seq") == b"0123456789"

    def test_multiple_replicas_different_delays(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        fast = manager.add_replica("fast", delay=0.001)
        slow = manager.add_replica("slow", delay=0.100)
        primary.execute("SET", "k", "v")
        clock.advance(0.002)
        assert fast.replica.execute("GET", "k") == b"v"
        assert slow.replica.execute("GET", "k") is None
        clock.advance(0.2)
        assert slow.replica.execute("GET", "k") == b"v"

    def test_duplicate_replica_name_rejected(self):
        primary, _ = make_primary()
        manager = ReplicationManager(primary)
        manager.add_replica("r1")
        with pytest.raises(ValueError):
            manager.add_replica("r1")

    def test_removed_replica_stops_consuming_stream(self):
        """Regression: a dropped replica must stop consuming the write
        stream even if someone still holds the link object."""
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.001)
        primary.execute("SET", "before", "1")
        link.close()
        assert link.closed
        assert link.backlog == 0           # in-flight backlog dropped
        primary.execute("SET", "after", "2")
        link.enqueue(0, [b"SET", b"sneak", b"3"])   # refused when closed
        assert link.backlog == 0
        clock.advance(1.0)
        assert link.stats.commands_applied == 0
        assert link.replica.execute("GET", "after") is None

    def test_close_detaches_write_listener(self):
        """Regression: the manager never unsubscribed from the primary,
        so every discarded manager kept taxing the write path forever."""
        primary, _ = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.001)
        assert len(primary.write_listeners) == 1
        manager.close()
        assert primary.write_listeners == []
        primary.execute("SET", "k", "v")
        assert link.backlog == 0
        manager.close()                    # idempotent
        with pytest.raises(ValueError):
            manager.add_replica("r2")      # closed managers are closed

    def test_last_applied_at_is_delivery_time(self):
        """The replica records when a command landed: its delivery
        event's instant, however far the clock later runs."""
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.010)
        start = clock.now()
        primary.execute("SET", "k", "v")
        clock.advance(5.0)
        assert link.stats.last_applied_at == pytest.approx(start + 0.010)

    def test_negative_delay_rejected(self):
        primary, _ = make_primary()
        manager = ReplicationManager(primary)
        with pytest.raises(ValueError):
            manager.add_replica("bad", delay=-1.0)

    def test_expiry_translated_absolutely(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=5.0)  # very laggy
        primary.execute("SET", "k", "v")
        primary.execute("EXPIRE", "k", 100)
        clock.advance(6.0)
        # The replica applied PEXPIREAT: deadline is absolute, so the
        # 6 s of replication lag ate into the TTL rather than extending it.
        assert link.replica.execute("TTL", "k") == 94

    def test_full_sync(self):
        primary, _ = make_primary()
        manager = ReplicationManager(primary)
        primary.execute("SET", "pre", "existing")
        link = manager.add_replica("r1")
        assert manager.full_sync_all() == 1
        assert link.replica.execute("GET", "pre") == b"existing"

    def test_full_sync_builds_the_image_once(self):
        """A group's full sync serialises the primary once, whatever the
        number of replicas, and every replica replays that image."""
        primary, _ = make_primary()
        for number in range(5):
            primary.execute("SET", f"k{number}", "v")
        manager = ReplicationManager(primary)
        for name in ("r1", "r2", "r3"):
            manager.add_replica(name)
        records = type(primary).snapshot_records
        calls = py_calls(manager.full_sync_all, [records])
        assert calls.result == 15
        assert calls.watched[records] == 1

    def test_full_sync_drains_backlog(self):
        """Regression: commands enqueued before the snapshot are already
        reflected in it; replaying them on top double-applied
        non-idempotent writes (APPEND/INCR)."""
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.010)
        primary.execute("APPEND", "seq", "abc")
        primary.execute("INCR", "hits")
        assert link.backlog == 2          # queued, undelivered
        manager.full_sync_all()           # snapshot already holds both
        assert link.backlog == 0
        clock.advance(1.0)
        assert link.replica.execute("GET", "seq") == b"abc"
        assert link.replica.execute("GET", "hits") == b"1"

    def test_writes_after_full_sync_still_stream(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.010)
        primary.execute("APPEND", "seq", "abc")
        manager.full_sync_all()
        primary.execute("APPEND", "seq", "def")   # after the snapshot
        clock.advance(1.0)
        assert link.replica.execute("GET", "seq") == b"abcdef"


class TestDeliveryEvents:
    """Replication has one mechanism: every replicated command is one
    daemon event on the group's scheduler."""

    def test_each_replicated_write_fires_one_event_at_write_time_plus_delay(
            self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        manager.add_replica("r1", delay=0.010)
        trace = clock.enable_trace()
        clock.advance(0.002)
        primary.execute("SET", "a", "1")            # write at 2 ms
        primary.execute("GET", "a")                 # a read: no event
        primary.execute("SET", "a", "2", "NX")      # a failed write: none
        clock.advance(0.003)
        primary.execute("DEL", "a")                 # write at 5 ms
        primary.execute("DEL", "missing")           # deletes nothing: none
        clock.advance(1.0)
        delivered = [(when, label) for when, label in trace
                     if label.startswith("replicate-")]
        assert delivered == [(pytest.approx(0.012), "replicate-r1"),
                             (pytest.approx(0.015), "replicate-r1")]

    def test_delivery_events_are_daemon(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.050)
        primary.execute("SET", "k", "v")
        assert clock.pending_live_events() == 0
        assert clock.run_until_idle() == 0          # nothing waits on it
        assert link.backlog == 1
        assert clock.pending_timers() == 1

    @pytest.mark.parametrize("stop", ["discard", "close", "remove"])
    def test_a_discarded_command_never_lands(self, stop):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.010)
        primary.execute("SET", "k", "v")
        if stop == "discard":
            assert link.discard_backlog() == 1
        elif stop == "close":
            manager.close()
        else:
            link.close()
        assert clock.pending_timers() == 0          # its event is cancelled
        clock.advance(1.0)
        assert link.replica.execute("GET", "k") is None
        assert link.stats.commands_applied == 0

    def test_clock_that_cannot_schedule_rejected(self):
        primary = KeyValueStore(StoreConfig(), clock=ShardClock())
        with pytest.raises(ValueError, match="scheduling clock"):
            ReplicationManager(primary)
        assert primary.write_listeners == []
        ReplicationManager(primary, clock=SimClock())   # an explicit one


class TestErasurePropagation:
    """The GDPR angle: a DEL is not erasure until replicas catch up."""

    def test_deleted_key_visible_on_replica_until_pump(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.050)
        primary.execute("SET", "pii", "secret")
        clock.advance(0.1)
        primary.execute("DEL", "pii")
        # Primary no longer serves it, but the replica still does.
        assert primary.execute("GET", "pii") is None
        assert link.replica.execute("GET", "pii") == b"secret"
        assert manager.key_visible_anywhere(b"pii")
        clock.advance(0.050)
        assert not manager.key_visible_anywhere(b"pii")

    def test_erasure_horizon_bounded_by_slowest_replica(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        manager.add_replica("fast", delay=0.010)
        manager.add_replica("slow", delay=0.200)
        primary.execute("SET", "pii", "secret")
        clock.advance(0.5)
        primary.execute("DEL", "pii")
        horizon = manager.erasure_horizon([b"pii"], step=0.005)
        assert horizon is not None
        assert 0.195 <= horizon <= 0.25

    def test_active_expiry_propagates_to_replicas(self):
        primary, clock = make_primary(expiry_strategy="fullscan")
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.001)
        primary.execute("SET", "k", "v", "EX", 5)
        clock.advance(0.01)
        clock.advance(6)
        primary.cron()  # primary reclaims and emits DEL
        clock.advance(0.01)
        assert b"k" not in link.replica.databases[0]

    def test_horizon_none_when_unreachable(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        manager.add_replica("partitioned", delay=10_000.0)
        primary.execute("SET", "pii", "x")
        manager.full_sync_all()            # the replica holds pii ...
        primary.execute("DEL", "pii")      # ... and the DEL never arrives
        assert manager.erasure_horizon([b"pii"], step=0.01,
                                       max_wait=0.1) is None
        assert manager.key_visible_anywhere(b"pii")

    def test_horizon_waits_for_queued_pre_deletion_write(self):
        """Regression: a visibility-only horizon read 0.0 s here, yet the
        replica served the key from 40 to 49 ms after the DEL, when the
        queued SET landed ahead of the DEL."""
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.050)
        primary.execute("SET", "pii", "secret")
        clock.advance(0.010)
        primary.execute("DEL", "pii")
        assert not manager.key_visible_anywhere(b"pii")   # SET in flight
        horizon = manager.erasure_horizon([b"pii"], step=0.001)
        assert horizon == pytest.approx(0.050, abs=0.0015)
        assert link.backlog == 0
        assert link.replica.execute("GET", "pii") is None

    def test_horizon_takes_a_key_set(self):
        primary, _ = make_primary()
        manager = ReplicationManager(primary)
        with pytest.raises(TypeError):
            manager.erasure_horizon(b"pii")
