"""Tests for the event-driven server: multiplexing, fairness, cron events.

The server under test is a one-shard cluster's (the only event-driven
server there is), driven through extra client connections.
"""

import pytest

from repro.cluster import build_cluster
from repro.common.clock import SimClock
from repro.common.resp import RespError
from repro.kvstore import KeyValueStore, StoreConfig


def make_server(cpu_cost=25e-6, connections=2, **config):
    def factory(index, clock):
        return KeyValueStore(
            StoreConfig(command_cpu_cost=cpu_cost, **config), clock=clock)

    node = build_cluster(1, store_factory=factory).nodes[0]
    return node.server, [node.connect() for _ in range(connections)]


class TestEventLoopBasics:
    def test_closed_loop_call_round_trips(self):
        server, (conn, _) = make_server()
        assert conn.call("SET", "k", "v") == "OK"
        assert conn.call("GET", "k") == b"v"

    def test_error_replies_raise(self):
        server, (conn, _) = make_server()
        conn.call("SET", "k", "v")
        with pytest.raises(RespError):
            conn.call("INCR", "k")

    def test_two_connections_share_one_store(self):
        server, (one, two) = make_server()
        one.call("SET", "shared", "1")
        assert two.call("GET", "shared") == b"1"

    def test_pipelined_replies_come_back_in_order(self):
        server, (conn, _) = make_server()
        for index in range(10):
            conn.send_command("SET", f"k{index}", index)
        server.scheduler.run_until_idle()
        assert list(conn.replies) == ["OK"] * 10
        conn.replies.clear()
        for index in range(10):
            conn.send_command("GET", f"k{index}")
        server.scheduler.run_until_idle()
        assert list(conn.replies) == [str(i).encode() for i in range(10)]

    def test_service_time_charged_per_command(self):
        server, (conn, _) = make_server(cpu_cost=1e-3)
        began = server.scheduler.now()
        conn.call("SET", "k", "v")
        assert server.scheduler.now() - began >= 1e-3

    def test_foreign_clock_channel_rejected(self):
        from repro.kvstore.server import EventConnection
        from repro.net.channel import Channel

        server, _ = make_server()
        stray = Channel(clock=SimClock())
        with pytest.raises(ValueError, match="scheduler"):
            EventConnection(server, channel=stray)

    def test_separate_meter_clock(self):
        server, (conn,) = make_server(cpu_cost=1e-3, connections=1)
        assert server.store.clock is not server.scheduler
        conn.call("SET", "k", "v")
        assert server.store.clock.now() >= 1e-3
        assert server.scheduler.now() >= 1e-3


class TestFairness:
    def test_flood_cannot_starve_neighbour(self):
        """One command per loop tick, round-robin: a connection that
        pipelines a flood finishes *after* a neighbour's single op."""
        server, (flood, single) = make_server()
        finishes = {}
        flood.on_reply = lambda _: finishes.setdefault(
            "flood", []).append(server.scheduler.now())
        single.on_reply = lambda _: finishes.setdefault(
            "single", []).append(server.scheduler.now())
        for _ in range(8):
            flood.send_command("SET", "a", "1")
        single.send_command("SET", "b", "2")
        server.scheduler.run_until_idle()
        assert len(finishes["flood"]) == 8
        assert len(finishes["single"]) == 1
        # The single op completed after at most two flood ops, not all 8.
        assert finishes["single"][0] < finishes["flood"][2]

    def test_round_robin_alternates_across_n_connections(self):
        server, conns = make_server(connections=4)
        accepted = [conn.server_connection for conn in conns]
        order = []
        original = server._serve_parsed     # the pool's dispatch entry

        def spy(conn, request, parsed):
            order.append(accepted.index(conn))
            return original(conn, request, parsed)

        server._serve_parsed = spy
        for conn in conns:
            for _ in range(3):
                conn.send_command("PING")
        server.scheduler.run_until_idle()
        # Requests from 4 connections interleave 0,1,2,3,0,1,2,3,...
        assert order[:8] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_loop_iterations_counted(self):
        server, (conn, _) = make_server()
        for _ in range(5):
            conn.send_command("PING")
        server.scheduler.run_until_idle()
        assert server.loop_iterations == 5


class TestCronEvents:
    def test_cron_expires_keys_from_daemon_events(self):
        server, (conn,) = make_server(connections=1,
                                      expiry_strategy="fullscan")
        scheduler, store = server.scheduler, server.store
        conn.call("SET", "doomed", "v")
        conn.call("PEXPIRE", "doomed", 50)
        # Post a marker event past the deadline; cron daemons fire along
        # the way but never keep the loop alive themselves.
        scheduler.schedule_at(scheduler.now() + 1.0, lambda: None)
        scheduler.run_until_idle()
        assert conn.call("GET", "doomed") is None
        assert store.stats.expired_keys == 1

    def test_stop_cron_cancels_the_timer(self):
        server, _ = make_server()
        assert server._cron_handle.active      # started with the node
        server.stop_cron()
        assert server._cron_handle is None
        assert server.scheduler.pending_timers() == 0

    def test_monitor_feed_streams_over_event_loop(self):
        server, (watcher, worker) = make_server()
        assert watcher.call("MONITOR") == "OK"
        stream = []
        watcher.on_raw = stream.append   # MONITOR is a raw text feed
        worker.call("SET", "k", "v")
        server.scheduler.run_until_idle()
        feed = b"".join(stream)
        assert b"SET" in feed and b'"k"' in feed
