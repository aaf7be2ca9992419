"""Tests for the RESP server/client over simulated channels."""

import pytest

from repro.common.clock import SimClock
from repro.common.resp import (RespError, SimpleString, decode_all,
                               encode_command)
from repro.kvstore import (
    KeyValueStore,
    StoreConfig,
    StoreServer,
    connect_plain,
    connect_tls,
)
from repro.net.channel import loopback
from repro.net.tls import stunnel_channel


@pytest.fixture
def clock():
    return SimClock()


def plain_client(clock, **config):
    store = KeyValueStore(StoreConfig(**config), clock=clock)
    channel = loopback(clock)
    return connect_plain(store, channel), store


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
        client.call("RPUSH", "l", "a", "b")
        assert client.call("LRANGE", "l", 0, -1) == [b"a", b"b"]

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
        store = KeyValueStore(StoreConfig(), clock=clock)
        channel = stunnel_channel(clock)
        client = connect_tls(store, channel, b"secret", clock=clock)
        assert client.call("SET", "k", "v") == SimpleString("OK")
        assert client.call("GET", "k") == b"v"

    def test_tls_slower_than_plain(self):
        plain_clock = SimClock()
        client, _ = plain_client(plain_clock)
        client.call("SET", "k", "v" * 1000)
        tls_clock = SimClock()
        store = KeyValueStore(StoreConfig(), clock=tls_clock)
        channel = stunnel_channel(tls_clock)
        tls_client = connect_tls(store, channel, b"secret",
                                 clock=tls_clock)
        tls_start = tls_clock.now()  # skip handshake cost
        tls_client.call("SET", "k", "v" * 1000)
        assert tls_clock.now() - tls_start > plain_clock.now()


class TestMonitorOverServer:
    def test_monitor_streams_commands(self, clock):
        store = KeyValueStore(StoreConfig(), clock=clock)
        channel = loopback(clock)
        worker = connect_plain(store, channel)
        # A second connection on its own channel becomes the monitor.
        monitor_channel = loopback(clock)
        monitor_client = connect_plain(store, monitor_channel)
        assert monitor_client.call("MONITOR") == SimpleString("OK")
        worker.call("SET", "k", "v")
        stream = monitor_channel.endpoints()[0].recv()
        assert b"SET" in stream and b'"k"' in stream

    def test_monitor_records_counted(self, clock):
        store = KeyValueStore(StoreConfig(), clock=clock)
        channel = loopback(clock)
        worker = connect_plain(store, channel)
        monitor_channel = loopback(clock)
        monitor_client = connect_plain(store, monitor_channel)
        monitor_client.call("MONITOR")
        worker.call("SET", "a", "1")
        worker.call("GET", "a")
        assert store.monitor.records_streamed == 2


class QueueTransport:
    """In-memory transport with optional side effects on recv.

    ``on_recv`` models a listener or handler that accepts/drops
    connections while the server is mid-pump -- the connection churn the
    pump loop must tolerate.
    """

    def __init__(self, pending=b"", on_recv=None):
        self.pending = pending
        self.on_recv = on_recv
        self.sent = []

    def send(self, data):
        self.sent.append(data)

    def recv_available(self):
        if self.on_recv is not None:
            callback, self.on_recv = self.on_recv, None
            callback()
        data, self.pending = self.pending, b""
        return data


class TestPumpConnectionChurn:
    """Regression: pump must iterate a snapshot of the connection list."""

    def test_connection_accepted_mid_pump_served_next_round(self, clock):
        server = StoreServer(KeyValueStore(StoreConfig(), clock=clock))
        late = QueueTransport(pending=encode_command(b"SET", b"late",
                                                     b"v"))

        def accept_late():
            server.accept(late)

        early = QueueTransport(pending=encode_command(b"PING"),
                               on_recv=accept_late)
        server.accept(early)
        # The accept happens while pump iterates; the new connection must
        # not be pumped in the same round (unsnapshotted iteration would
        # serve it immediately).
        assert server.pump() == 1
        assert server.store.execute("GET", "late") is None
        assert server.pump() == 1
        assert server.store.execute("GET", "late") == b"v"

    def test_connection_dropped_mid_pump_does_not_skip_others(self, clock):
        server = StoreServer(KeyValueStore(StoreConfig(), clock=clock))

        def drop_first():
            server.connections.remove(first_conn)

        first = QueueTransport(pending=encode_command(b"SET", b"a", b"1"),
                               on_recv=drop_first)
        second = QueueTransport(pending=encode_command(b"SET", b"b",
                                                       b"2"))
        third = QueueTransport(pending=encode_command(b"SET", b"c", b"3"))
        first_conn = server.accept(first)
        server.accept(second)
        server.accept(third)
        # Dropping an earlier connection mid-iteration shifts the list;
        # without the snapshot the next connection is skipped entirely.
        assert server.pump() == 3
        assert server.store.execute("GET", "b") == b"2"
        assert server.store.execute("GET", "c") == b"3"


PROTOCOL_ERROR = RespError("ERR protocol error: expected a command array")
# A RESP integer, an array holding a non-bulk element, an empty array.
NOT_COMMANDS = (b":1\r\n", b"*1\r\n:5\r\n", b"*0\r\n")


class TestProtocolErrorReplies:
    """A decodable value that is not an array of bulk strings is answered
    with a protocol error, in order, and the connection keeps serving."""

    def test_closed_loop_pump_answers_each_malformed_request(self, clock):
        server = StoreServer(KeyValueStore(StoreConfig(), clock=clock))
        transport = QueueTransport(
            pending=encode_command(b"SET", b"k", b"v")
            + NOT_COMMANDS[0] + NOT_COMMANDS[1]
            + encode_command(b"GET", b"k") + NOT_COMMANDS[2])
        server.accept(transport)
        assert server.pump() == 5
        assert decode_all(b"".join(transport.sent)) == [
            SimpleString("OK"), PROTOCOL_ERROR, PROTOCOL_ERROR, b"v",
            PROTOCOL_ERROR]

    def test_store_client_sees_the_error_then_keeps_working(self, clock):
        client, _ = plain_client(clock)
        client.call("SET", "k", "v")
        for raw in NOT_COMMANDS:
            client._transport.send(raw)
            client._server.pump()
            client._decoder.feed(client._transport.recv_available())
            assert client._decoder.next_value() == (True, PROTOCOL_ERROR)
        assert client.call("GET", "k") == b"v"
