"""Tests for simulated network channels: sends are scheduled deliveries
on the channel's clock, which each test drives until they have landed."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ChannelClosedError
from repro.net.channel import (
    PROXIED_BANDWIDTH_BPS,
    RAW_BANDWIDTH_BPS,
    Channel,
    loopback,
)


def deliver(channel):
    """Run the channel's scheduler until every send has been delivered."""
    channel.clock.run_until_idle()


class TestDataTransfer:
    def test_send_recv(self):
        channel = loopback()
        a, b = channel.endpoints()
        a.send(b"hello")
        deliver(channel)
        assert b.recv() == b"hello"

    def test_bidirectional(self):
        channel = loopback()
        a, b = channel.endpoints()
        a.send(b"ping")
        b.send(b"pong")
        deliver(channel)
        assert b.recv() == b"ping"
        assert a.recv() == b"pong"

    def test_recv_empty_returns_empty(self):
        channel = loopback()
        a, _ = channel.endpoints()
        assert a.recv() == b""

    def test_messages_concatenate(self):
        channel = loopback()
        a, b = channel.endpoints()
        a.send(b"ab")
        a.send(b"cd")
        deliver(channel)
        assert b.recv() == b"abcd"

    def test_recv_max_bytes(self):
        channel = loopback()
        a, b = channel.endpoints()
        a.send(b"abcdef")
        deliver(channel)
        assert b.recv(4) == b"abcd"
        assert b.recv(4) == b"ef"

    def test_available(self):
        channel = loopback()
        a, b = channel.endpoints()
        a.send(b"abc")
        deliver(channel)
        assert b.available == 3
        b.recv(2)
        assert b.available == 1

    def test_counters(self):
        channel = loopback()
        a, _ = channel.endpoints()
        a.send(b"12345")
        assert channel.messages == 1
        assert channel.bytes_transferred == 5


class TestClose:
    def test_send_after_close(self):
        channel = loopback()
        a, _ = channel.endpoints()
        channel.close()
        with pytest.raises(ChannelClosedError):
            a.send(b"x")

    def test_recv_drains_then_raises(self):
        channel = loopback()
        a, b = channel.endpoints()
        a.send(b"last")
        deliver(channel)
        b.close()
        assert b.recv() == b"last"
        with pytest.raises(ChannelClosedError):
            b.recv()


class TestTiming:
    def test_latency_charged(self):
        clock = SimClock()
        channel = Channel(clock=clock, bandwidth_bps=1e12, latency=1e-3)
        a, _ = channel.endpoints()
        a.send(b"x")
        assert clock.now() == 0.0           # the sender is not blocked
        deliver(channel)
        assert clock.now() == pytest.approx(1e-3, rel=0.01)

    def test_bandwidth_charged(self):
        clock = SimClock()
        channel = Channel(clock=clock, bandwidth_bps=1e6, latency=0.0)
        a, _ = channel.endpoints()
        a.send(b"x" * 1_000_000)
        deliver(channel)
        assert clock.now() == pytest.approx(1.0)

    def test_per_message_overhead(self):
        clock = SimClock()
        channel = Channel(clock=clock, bandwidth_bps=1e12, latency=0.0,
                          per_message_overhead=5e-6)
        a, _ = channel.endpoints()
        a.send(b"x")
        a.send(b"y")       # queues behind the first on the link
        deliver(channel)
        assert clock.now() == pytest.approx(10e-6, rel=0.01)

    def test_transfer_time_prediction(self):
        clock = SimClock()
        channel = Channel(clock=clock, bandwidth_bps=1e9, latency=1e-6)
        a, _ = channel.endpoints()
        a.send(b"x" * 1000)
        deliver(channel)
        assert clock.now() == pytest.approx(1e-6 + 1000 / 1e9)

    def test_paper_bandwidth_constants(self):
        # 44 Gb/s raw; 4.9 Gb/s through the stunnel proxies.
        assert RAW_BANDWIDTH_BPS == pytest.approx(44e9 / 8)
        assert PROXIED_BANDWIDTH_BPS == pytest.approx(4.9e9 / 8)
        assert RAW_BANDWIDTH_BPS / PROXIED_BANDWIDTH_BPS == pytest.approx(
            44 / 4.9, rel=0.01)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Channel(bandwidth_bps=0)
        with pytest.raises(ValueError):
            Channel(latency=-1)
