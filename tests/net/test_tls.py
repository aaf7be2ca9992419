"""Tests for the TLS-like secure channel and stunnel model.  Records
travel as scheduled deliveries; a test drives the channel's clock until
what it sent has landed."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import HandshakeError, IntegrityError
from repro.net.channel import loopback
from repro.net.tls import (
    TLS_COST_PER_BYTE,
    TlsSession,
    establish_session_pair,
    stunnel_channel,
)


def deliver(channel):
    channel.clock.run_until_idle()


def make_pair(psk=b"shared-secret"):
    clock = SimClock()
    channel = loopback(clock)
    client, server = establish_session_pair(channel, psk, clock=clock)
    return client, server, clock, channel


class TestHandshake:
    def test_completes_with_matching_psk(self):
        client, server, _, _ = make_pair()
        assert client.handshake_complete
        assert server.handshake_complete

    def test_fails_with_mismatched_psk(self):
        clock = SimClock()
        channel = loopback(clock)
        a, b = channel.endpoints()
        client = TlsSession(a, b"alpha", is_client=True, clock=clock)
        server = TlsSession(b, b"beta", is_client=False, clock=clock)
        client.start_handshake()
        deliver(channel)
        with pytest.raises(HandshakeError):
            server.respond_handshake()

    def test_server_cannot_start(self):
        clock = SimClock()
        channel = loopback(clock)
        _, b = channel.endpoints()
        server = TlsSession(b, b"psk", is_client=False, clock=clock)
        with pytest.raises(HandshakeError):
            server.start_handshake()

    def test_client_cannot_respond(self):
        clock = SimClock()
        channel = loopback(clock)
        a, _ = channel.endpoints()
        client = TlsSession(a, b"psk", is_client=True, clock=clock)
        with pytest.raises(HandshakeError):
            client.respond_handshake()

    def test_data_before_handshake_rejected(self):
        clock = SimClock()
        channel = loopback(clock)
        a, _ = channel.endpoints()
        client = TlsSession(a, b"psk", is_client=True, clock=clock)
        with pytest.raises(HandshakeError):
            client.send(b"too early")

    def test_tampered_server_hello_rejected(self):
        clock = SimClock()
        channel = loopback(clock)
        a, b = channel.endpoints()
        client = TlsSession(a, b"psk", is_client=True, clock=clock)
        server = TlsSession(b, b"psk", is_client=False, clock=clock)
        client.start_handshake()
        deliver(channel)
        server.respond_handshake()
        deliver(channel)
        # Intercept and corrupt the ServerHello.
        hello = bytearray(a.recv())
        hello[-1] ^= 0xFF
        a._deliver(bytes(hello))
        with pytest.raises(HandshakeError):
            client.finish_handshake()


class TestRecords:
    def test_roundtrip_both_directions(self):
        client, server, _, channel = make_pair()
        client.send(b"request")
        deliver(channel)
        assert server.recv() == b"request"
        server.send(b"response")
        deliver(channel)
        assert client.recv() == b"response"

    def test_wire_is_ciphertext(self):
        clock = SimClock()
        channel = loopback(clock)
        client, server = establish_session_pair(channel, b"psk",
                                                clock=clock)
        client.send(b"SECRET-MARKER-VALUE")
        deliver(channel)
        raw = channel.endpoints()[1].recv()
        assert b"SECRET-MARKER-VALUE" not in raw
        # Re-deliver for the record layer to consume.
        channel.endpoints()[1]._deliver(raw)
        assert server.recv() == b"SECRET-MARKER-VALUE"

    def test_recv_when_empty(self):
        client, server, _, _ = make_pair()
        assert server.recv() == b""

    def test_recv_all_multiple_records(self):
        client, server, _, channel = make_pair()
        client.send(b"one")
        client.send(b"two")
        deliver(channel)
        assert server.recv_all() == b"onetwo"

    def test_replay_detected(self):
        clock = SimClock()
        channel = loopback(clock)
        client, server = establish_session_pair(channel, b"psk",
                                                clock=clock)
        client.send(b"msg")
        deliver(channel)
        raw = channel.endpoints()[1].recv()
        channel.endpoints()[1]._deliver(raw)
        assert server.recv() == b"msg"
        channel.endpoints()[1]._deliver(raw)  # replay the same record
        with pytest.raises(IntegrityError):
            server.recv()

    def test_tampered_record_rejected(self):
        clock = SimClock()
        channel = loopback(clock)
        client, server = establish_session_pair(channel, b"psk",
                                                clock=clock)
        client.send(b"msg")
        deliver(channel)
        raw = bytearray(channel.endpoints()[1].recv())
        raw[-1] ^= 0x01
        channel.endpoints()[1]._deliver(bytes(raw))
        with pytest.raises(IntegrityError):
            server.recv()

    def test_crypto_charges_time(self):
        client, server, clock, channel = make_pair()
        before = clock.now()
        client.send(b"x" * 10_000)
        # Sealing is charged at once, before the record leaves.
        assert clock.now() == pytest.approx(
            before + 10_000 * TLS_COST_PER_BYTE)
        deliver(channel)
        delivered = clock.now()
        server.recv()
        assert clock.now() > delivered


class TestStunnelModel:
    def test_proxied_bandwidth_collapse(self):
        # The paper's measurement: 44 Gb/s -> 4.9 Gb/s.
        raw = loopback(SimClock())
        proxied = stunnel_channel(SimClock())
        assert proxied.bandwidth_bps < raw.bandwidth_bps / 8

    def test_proxy_overhead_positive(self):
        proxied = stunnel_channel(SimClock())
        assert proxied.per_message_overhead > 0

    def test_message_slower_through_proxy(self):
        raw = loopback(SimClock())
        proxied = stunnel_channel(SimClock())
        for channel in (raw, proxied):
            channel.endpoints()[0].send(b"x" * 1024)
            channel.clock.run_until_idle()
        assert proxied.clock.now() > raw.clock.now()
