"""Tests for async replication and the erasure-propagation horizon."""

import pytest

from repro.common.clock import SimClock
from repro.kvstore import KeyValueStore, ReplicationManager, StoreConfig


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
        clock.advance(0.011)
        manager.pump()
        assert link.replica.execute("GET", "k") == b"v"

    def test_reads_not_replicated(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.0)
        primary.execute("SET", "k", "v")
        primary.execute("GET", "k")
        manager.pump()
        assert link.stats.commands_applied == 1

    def test_failed_writes_not_replicated(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.0)
        primary.execute("SET", "k", "v")
        primary.execute("SET", "k", "w", "NX")  # no-op
        manager.pump()
        assert link.stats.commands_applied == 1
        assert link.replica.execute("GET", "k") == b"v"

    def test_command_order_preserved(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.001)
        for i in range(10):
            primary.execute("APPEND", "seq", str(i))
        clock.advance(0.01)
        manager.pump()
        assert link.replica.execute("GET", "seq") == b"0123456789"

    def test_multiple_replicas_different_delays(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        fast = manager.add_replica("fast", delay=0.001)
        slow = manager.add_replica("slow", delay=0.100)
        primary.execute("SET", "k", "v")
        clock.advance(0.002)
        manager.pump()
        assert fast.replica.execute("GET", "k") == b"v"
        assert slow.replica.execute("GET", "k") is None
        clock.advance(0.2)
        manager.pump()
        assert slow.replica.execute("GET", "k") == b"v"

    def test_duplicate_replica_name_rejected(self):
        primary, _ = make_primary()
        manager = ReplicationManager(primary)
        manager.add_replica("r1")
        with pytest.raises(ValueError):
            manager.add_replica("r1")

    def test_remove_replica(self):
        primary, _ = make_primary()
        manager = ReplicationManager(primary)
        manager.add_replica("r1")
        assert manager.remove_replica("r1") is True
        assert manager.remove_replica("r1") is False

    def test_removed_replica_stops_consuming_stream(self):
        """Regression: a dropped replica must stop consuming the write
        stream even if someone still holds the link object."""
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.001)
        primary.execute("SET", "before", "1")
        manager.remove_replica("r1")
        assert link.closed
        assert link.backlog == 0           # in-flight backlog dropped
        primary.execute("SET", "after", "2")
        link.enqueue(0, [b"SET", b"sneak", b"3"])   # refused when closed
        assert link.backlog == 0
        clock.advance(1.0)
        assert link.pump() == 0
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
        """Regression: recording pump time instead of delivery time
        skewed lag/compliance metrics when pumps were infrequent."""
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.010)
        start = clock.now()
        primary.execute("SET", "k", "v")
        clock.advance(5.0)                 # pump long after delivery
        manager.pump()
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
        manager.pump()
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
        manager.pump()
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
        manager.pump()
        assert link.replica.execute("GET", "seq") == b"abcdef"

    def test_lag_reporting(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        manager.add_replica("r1", delay=0.5)
        assert manager.max_lag() == 0.0
        primary.execute("SET", "k", "v")
        assert 0.4 <= manager.max_lag() <= 0.5


class TestErasurePropagation:
    """The GDPR angle: a DEL is not erasure until replicas catch up."""

    def test_deleted_key_visible_on_replica_until_pump(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.050)
        primary.execute("SET", "pii", "secret")
        clock.advance(0.1)
        manager.pump()
        primary.execute("DEL", "pii")
        # Primary no longer serves it, but the replica still does.
        assert primary.execute("GET", "pii") is None
        assert link.replica.execute("GET", "pii") == b"secret"
        assert manager.key_visible_anywhere(b"pii")

    def test_erasure_horizon_bounded_by_slowest_replica(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        manager.add_replica("fast", delay=0.010)
        manager.add_replica("slow", delay=0.200)
        primary.execute("SET", "pii", "secret")
        clock.advance(0.5)
        manager.pump()
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
        manager.pump()
        clock.advance(6)
        primary.cron()  # primary reclaims and emits DEL
        clock.advance(0.01)
        manager.pump()
        assert b"k" not in link.replica.databases[0]

    def test_horizon_none_when_unreachable(self):
        primary, clock = make_primary()
        manager = ReplicationManager(primary)
        link = manager.add_replica("r1", delay=0.0)
        primary.execute("SET", "pii", "x")
        manager.pump()
        # Simulate a partitioned replica: clear its queue processing by
        # deleting only on the primary and never pumping that link.
        primary.execute("DEL", "pii")
        link.delay = 10_000.0
        # Re-enqueue happened at delay=0 though; emulate stuck delivery:
        link._queue.clear()
        assert manager.erasure_horizon([b"pii"], step=0.01,
                                       max_wait=0.1) is None

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
