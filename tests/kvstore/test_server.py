"""Tests for RESP connections to a single node's event-driven server,
raw and through TLS sessions."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import IntegrityError
from repro.common.resp import RespError, SimpleString, encode_command
from repro.kvstore import EventConnection
from repro.net.channel import loopback
from repro.net.tls import stunnel_channel
from tests.support import one_core_server


@pytest.fixture
def clock():
    return SimClock()


def plain_client(clock, **config):
    server = one_core_server(clock, **config)
    return EventConnection(server, channel=loopback(clock)), server.store


def tls_client(clock, psk=b"secret", **config):
    server = one_core_server(clock, **config)
    channel = stunnel_channel(clock)
    return EventConnection(server, channel=channel, psk=psk), channel


class TestPlainClient:
    def test_set_get(self, clock):
        client, _ = plain_client(clock)
        assert client.call("SET", "k", "v") == SimpleString("OK")
        assert client.call("GET", "k") == b"v"

    def test_null_reply(self, clock):
        client, _ = plain_client(clock)
        assert client.call("GET", "missing") is None

    def test_integer_reply(self, clock):
        client, _ = plain_client(clock)
        client.call("SET", "k", "v")
        assert client.call("EXISTS", "k") == 1

    def test_array_reply(self, clock):
        client, _ = plain_client(clock)
        client.call("ZADD", "z", 1, "a", 2, "b")
        assert client.call("ZRANGEBYSCORE", "z", "-inf", "+inf") == \
            [b"a", b"b"]

    def test_error_raised(self, clock):
        client, _ = plain_client(clock)
        with pytest.raises(RespError):
            client.call("NOSUCHCMD")

    def test_error_returned_when_not_raising(self, clock):
        client, _ = plain_client(clock)
        reply = client.call("NOSUCHCMD", raise_errors=False)
        assert isinstance(reply, RespError)

    def test_wrongtype_surfaces_as_resp_error(self, clock):
        client, _ = plain_client(clock)
        client.call("HSET", "h", "f", "v")
        with pytest.raises(RespError) as excinfo:
            client.call("GET", "h")
        assert "WRONGTYPE" in str(excinfo.value)

    def test_arity_error_surfaces(self, clock):
        client, _ = plain_client(clock)
        with pytest.raises(RespError) as excinfo:
            client.call("GET")
        assert "wrong number of arguments" in str(excinfo.value)

    def test_round_trip_advances_clock(self, clock):
        client, _ = plain_client(clock)
        before = clock.now()
        client.call("PING")
        assert clock.now() > before

    def test_ping(self, clock):
        client, _ = plain_client(clock)
        assert client.call("PING") == SimpleString("PONG")
        assert client.call("PING", "hello") == b"hello"

    def test_binary_safe_args(self, clock):
        client, _ = plain_client(clock)
        payload = bytes(range(256))
        client.call("SET", b"bin", payload)
        assert client.call("GET", "bin") == payload


class TestTlsClient:
    def test_commands_over_tls(self, clock):
        client, _ = tls_client(clock)
        assert client.call("SET", "k", "v") == SimpleString("OK")
        assert client.call("GET", "k") == b"v"

    def test_tls_slower_than_plain(self):
        plain_clock = SimClock()
        client, _ = plain_client(plain_clock)
        client.call("SET", "k", "v" * 1000)
        tls_clock = SimClock()
        tls, _ = tls_client(tls_clock)
        tls_start = tls_clock.now()  # skip handshake cost
        tls.call("SET", "k", "v" * 1000)
        assert tls_clock.now() - tls_start > plain_clock.now()


# SET/GET/HGETALL, with a reply of every shape (status, bulk, null,
# integer, array, error).
SCRIPT = (
    ("SET", "k", "v"),
    ("GET", "k"),
    ("GET", "missing"),
    ("HSET", "h", "f1", "a", "f2", "b"),
    ("HGETALL", "h"),
    ("GET", "h"),
)


class TestTlsOverEventPath:
    """A TLS connection to a one-core server behaves like a raw one on
    the wire's far side, and like ciphertext on the wire."""

    def test_same_replies_as_raw(self):
        raw, _ = plain_client(SimClock())
        tls, _ = tls_client(SimClock())
        for command in SCRIPT:
            assert tls.call(*command, raise_errors=False) \
                == raw.call(*command, raise_errors=False)

    def test_planted_value_never_on_the_wire(self, clock):
        client, channel = tls_client(clock)
        wire = []
        transmit = channel.transmit

        def recording(from_side, data):
            wire.append(data)
            transmit(from_side, data)

        channel.transmit = recording
        marker = b"PLANTED-PII-MARKER"
        client.call("SET", "k", marker)
        client.call("HSET", "h", "f", marker)
        assert client.call("GET", "k") == marker
        assert client.call("HGETALL", "h") == [b"f", marker]
        assert len(wire) == 8            # four requests, four replies
        assert not any(marker in data for data in wire)

    def test_tampered_record_surfaces_integrity_error(self, clock):
        client, channel = tls_client(clock)
        client.call("SET", "k", "v")
        transmit = channel.transmit

        def tampering(from_side, data):
            transmit(from_side, data[:-1] + bytes([data[-1] ^ 0x01]))

        channel.transmit = tampering
        with pytest.raises(IntegrityError):
            client.call("GET", "k")


class TestMonitorOverServer:
    def test_monitor_streams_commands(self, clock):
        server = one_core_server(clock)
        worker = EventConnection(server, channel=loopback(clock))
        # A second connection on its own channel becomes the monitor.
        monitor_client = EventConnection(server, channel=loopback(clock))
        assert monitor_client.call("MONITOR") == SimpleString("OK")
        stream = []
        monitor_client.on_raw = stream.append   # a raw text feed
        worker.call("SET", "k", "v")
        clock.run_until_idle()
        feed = b"".join(stream)
        assert b"SET" in feed and b'"k"' in feed

    def test_monitor_records_counted(self, clock):
        server = one_core_server(clock)
        worker = EventConnection(server, channel=loopback(clock))
        monitor_client = EventConnection(server, channel=loopback(clock))
        monitor_client.call("MONITOR")
        worker.call("SET", "a", "1")
        worker.call("GET", "a")
        assert server.store.monitor.records_streamed == 2


PROTOCOL_ERROR = RespError("ERR protocol error: expected a command array")
# A RESP integer, an array holding a non-bulk element, an empty array.
NOT_COMMANDS = (b":1\r\n", b"*1\r\n:5\r\n", b"*0\r\n")


class TestProtocolErrorReplies:
    """A decodable value that is not an array of bulk strings is answered
    with a protocol error, in order, and the connection keeps serving."""

    def test_closed_loop_pump_answers_each_malformed_request(self, clock):
        client, _ = plain_client(clock)
        client.send_raw(
            encode_command(b"SET", b"k", b"v")
            + NOT_COMMANDS[0] + NOT_COMMANDS[1]
            + encode_command(b"GET", b"k") + NOT_COMMANDS[2])
        assert client.await_replies(5) == [
            SimpleString("OK"), PROTOCOL_ERROR, PROTOCOL_ERROR, b"v",
            PROTOCOL_ERROR]

    def test_client_sees_the_error_then_keeps_working(self, clock):
        client, _ = plain_client(clock)
        client.call("SET", "k", "v")
        for raw in NOT_COMMANDS:
            client.send_raw(raw)
            assert client.await_replies(1) == [PROTOCOL_ERROR]
        assert client.call("GET", "k") == b"v"
