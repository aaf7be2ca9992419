"""Tests for admin commands, slowlog, monitor feed, and keyspace internals."""

import random

import pytest

from repro.common.clock import SimClock
from repro.common.resp import RespError, SimpleString
from repro.kvstore import KeyValueStore, RandomAccessSet, StoreConfig
from repro.kvstore.monitor import MonitorFeed
from repro.kvstore.slowlog import Slowlog
from tests.support import assert_refused


@pytest.fixture
def store():
    return KeyValueStore(clock=SimClock())


class TestInfoConfig:
    def test_info_contains_sections(self, store):
        store.execute("SET", "k", "v")
        text = store.execute("INFO").decode()
        assert "# Stats" in text
        assert "db0:keys=1" in text

    # CONFIG is not served: a setting is chosen once, when the store is
    # built.

    def test_config_get_glob(self, store):
        assert_refused(store, "CONFIG", "GET", "append*")

    def test_config_set_appendfsync(self, store):
        assert_refused(store, "CONFIG", "SET", "appendfsync", "always")
        assert store.config.appendfsync == "everysec"

    def test_config_set_unknown(self, store):
        assert_refused(store, "CONFIG", "SET", "bogus-param", "1")

    def test_config_bad_subcommand(self, store):
        assert_refused(store, "CONFIG", "FROB")

    def test_time_reflects_clock(self, store):
        # TIME is not served: the simulated clock is read in process.
        store.clock.advance(12.5)
        assert_refused(store, "TIME")

    def test_echo(self, store):
        # PING with a message is the echo.
        assert store.execute("PING", "hi") == b"hi"
        assert_refused(store, "ECHO", "hi")


class TestSlowlogCommand:
    def test_slowlog_records_with_zero_threshold(self, store):
        store.slowlog.threshold = 0.0
        store.execute("SET", "k", "v")
        assert store.execute("SLOWLOG", "LEN") >= 1

    def test_slowlog_get_structure(self, store):
        store.slowlog.threshold = 0.0
        store.execute("SET", "k", "v")
        entries = store.execute("SLOWLOG", "GET", 5)
        assert entries
        entry = entries[0]
        assert len(entry) == 4  # id, ts, duration_us, args
        assert entry[3][0] == b"SET"

    def test_slowlog_reset(self, store):
        store.slowlog.threshold = 0.0
        store.execute("SET", "k", "v")
        store.execute("SLOWLOG", "RESET")
        # Only the RESET command itself (recorded after it ran) remains.
        entries = store.execute("SLOWLOG", "GET", 10)
        assert len(entries) == 1
        assert entries[0][3][:2] == [b"SLOWLOG", b"RESET"]

    def test_slowlog_default_threshold_ignores_fast_ops(self, store):
        store.execute("SET", "k", "v")  # zero-cost command under SimClock
        assert store.execute("SLOWLOG", "LEN") == 0

    def test_slowlog_bad_subcommand(self, store):
        with pytest.raises(RespError):
            store.execute("SLOWLOG", "FROB")


class TestSlowlogUnit:
    def test_ring_bound(self):
        log = Slowlog(threshold=0.0, max_len=3)
        for i in range(10):
            log.maybe_record(float(i), 1.0, [b"CMD", str(i).encode()])
        assert len(log) == 3
        assert log.dropped == 7

    def test_most_recent_first(self):
        log = Slowlog(threshold=0.0, max_len=10)
        log.maybe_record(1.0, 1.0, [b"A"])
        log.maybe_record(2.0, 1.0, [b"B"])
        assert log.get(1)[0].args == (b"B",)

    def test_negative_threshold_disables(self):
        log = Slowlog(threshold=-1)
        assert log.maybe_record(0.0, 100.0, [b"SLOW"]) is False

    def test_threshold_filters(self):
        log = Slowlog(threshold=0.5)
        assert log.maybe_record(0.0, 0.1, [b"FAST"]) is False
        assert log.maybe_record(0.0, 0.9, [b"SLOW"]) is True


class TestMonitorFeed:
    def test_publish_to_sinks(self):
        feed = MonitorFeed()
        lines = []
        feed.attach(lines.append)
        feed.publish(1.0, 0, [b"SET", b"k", b"v"])
        assert len(lines) == 1
        assert b'"SET"' in lines[0]

    def test_inactive_feed_skips_formatting(self):
        feed = MonitorFeed()
        feed.publish(1.0, 0, [b"SET", b"k", b"v"])
        assert feed.records_streamed == 0

    def test_format_includes_db_and_timestamp(self):
        line = MonitorFeed.format_record(3.25, 2, [b"GET", b"key"])
        assert line.startswith(b"3.250000 [2")
        assert b'"GET" "key"' in line

    def test_charges_clock_when_active(self):
        clock = SimClock()
        feed = MonitorFeed(clock=clock, format_cost=1e-6)
        feed.attach(lambda line: None)
        feed.publish(0.0, 0, [b"PING"])
        assert clock.now() == pytest.approx(1e-6)


class TestRandomAccessSet:
    def test_add_discard_contains(self):
        s = RandomAccessSet()
        s.add(b"a")
        s.add(b"b")
        assert b"a" in s and len(s) == 2
        s.discard(b"a")
        assert b"a" not in s and len(s) == 1

    def test_duplicate_add_ignored(self):
        s = RandomAccessSet()
        s.add(b"a")
        s.add(b"a")
        assert len(s) == 1

    def test_discard_missing_ignored(self):
        s = RandomAccessSet()
        s.discard(b"ghost")
        assert len(s) == 0

    def test_random_key_from_empty(self):
        assert RandomAccessSet().random_key(random.Random(0)) is None

    def test_random_key_uniformish(self):
        s = RandomAccessSet()
        for i in range(10):
            s.add(f"k{i}".encode())
        rng = random.Random(0)
        seen = {s.random_key(rng) for _ in range(300)}
        assert len(seen) == 10

    def test_swap_remove_keeps_consistency(self):
        s = RandomAccessSet()
        for i in range(100):
            s.add(f"k{i}".encode())
        rng = random.Random(1)
        for i in range(0, 100, 2):
            s.discard(f"k{i}".encode())
        assert len(s) == 50
        for _ in range(100):
            key = s.random_key(rng)
            assert key in s
        assert sorted(s) == sorted(f"k{i}".encode()
                                   for i in range(1, 100, 2))
