"""RESP server and client connections over simulated channels.

This is the deployment surface the paper's encryption experiment measures:
YCSB (the client) talks RESP to Redis (the server) over the network, either
directly or through stunnel TLS proxies.  There is one execution model,
the event-driven one: :class:`EventLoopMixin` gives a :class:`StoreServer`
connection intake on a scheduler clock
(:class:`~repro.common.clock.SimClock` events) -- bytes arrive as delivery
events and queue per connection, a worker pool of K >= 1 simulated cores
picks the next command round-robin over connections (so no connection can
starve the others), replies depart as scheduled transmissions at service
completion, and background work (expiry cron, fsync) runs from daemon
timer events.  A single node is :class:`EventStoreServer` behind a
one-core pool; a cluster shard is
:class:`~repro.cluster.client.ClusterStoreServer`.

:class:`EventConnection` is the client side of one connection, raw or --
given a pre-shared key -- through a :class:`~repro.net.tls.TlsSession`
pair whose record crypto is charged to the scheduler.  Its closed-loop
:meth:`EventConnection.call` sends one command and drives the scheduler
until the reply is delivered, so the scheduler sees exactly the latency a
closed-loop client would.

MONITOR is implemented as in Redis: a client that issues MONITOR is
switched to a feed of every subsequent command, streamed over its own
transport (hence over TLS when the deployment is proxied -- the cost the
paper notes when rejecting MONITOR for audit logging).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, List, Optional, Set, Tuple

from ..common.errors import StoreError
from ..common.resp import RespDecoder, RespError, encode, encode_command
from ..engine.base import HZ
from ..net.channel import Channel, Endpoint
from ..net.tls import TlsSession, establish_session_pair
from .commands import Session
from .store import KeyValueStore


class RawTransport:
    """Plaintext transport over a channel endpoint."""

    def __init__(self, endpoint: Endpoint) -> None:
        self._endpoint = endpoint

    def send(self, data: bytes) -> None:
        self._endpoint.send(data)

    def recv_available(self) -> bytes:
        return self._endpoint.recv()


class TlsTransport:
    """Encrypted transport over a TLS session."""

    def __init__(self, session: TlsSession) -> None:
        self._session = session

    def send(self, data: bytes) -> None:
        self._session.send(data)

    def recv_available(self) -> bytes:
        return self._session.recv_all()


class BufferedTransport:
    """Coalesces sends into one underlying transmit per :meth:`flush`.

    The server writes one reply per request; wrapping its transport in
    this buffer turns a batch's replies into a single message, the same
    coalescing TCP gives a real pipelined connection.  The event-driven
    server uses it to hold a reply until the command's service time has
    elapsed.

    While it holds bytes the transport keeps ``token`` in the shared
    ``unflushed`` set, so an owner of many transports (the worker pool)
    flushes exactly the ones with something to send instead of polling
    them all.
    """

    def __init__(self, inner, unflushed: Optional[Set] = None,
                 token: Any = None) -> None:
        self._inner = inner
        self._buffer: List[bytes] = []
        self._unflushed = unflushed if unflushed is not None else set()
        self._token = token

    def send(self, data: bytes) -> None:
        if not self._buffer:
            self._unflushed.add(self._token)
        self._buffer.append(data)

    def flush(self) -> None:
        if self._buffer:
            self._inner.send(b"".join(self._buffer))
            self._buffer.clear()
            self._unflushed.discard(self._token)

    def recv_available(self) -> bytes:
        return self._inner.recv_available()


def resp_error_from_store_error(exc: StoreError) -> RespError:
    """Map a store exception to its wire form, prefixing ``ERR`` unless
    the message already leads with an error code (WRONGTYPE, BUSYKEY,
    ...).  One mapping for every serving path -- the RESP servers and
    the cluster client's direct replica reads must format identically."""
    message = str(exc)
    if not message.split(" ", 1)[0].isupper():
        message = "ERR " + message
    return RespError(message)


_NOT_A_COMMAND = encode(RespError(
    "ERR protocol error: expected a command array"))


def command_name(request: Any) -> Optional[bytes]:
    """The upper-cased name of a well-formed command -- a non-empty list
    of bulk strings -- or ``None`` for anything else a peer can make the
    decoder produce (integers, nested or empty arrays, nulls)."""
    if not isinstance(request, list) or not request:
        return None
    for arg in request:
        if not isinstance(arg, bytes):
            return None
    return request[0].upper()


class ServerConnection:
    """Server-side state for one client connection.

    ``index`` is the connection's position in its server's list.
    ``pending`` / ``intake`` / ``outstanding`` are the server's queue:
    one ``(arrival time, route, readonly, parsed)`` intake entry per
    parsed-but-undispatched request, plus the count of
    dispatched commands whose service time has not elapsed yet (the
    connection's buffered replies flush only when it returns to zero,
    which is what keeps RESP replies in request order across cores).
    """

    def __init__(self, transport, session: Session, index: int = 0) -> None:
        self.transport = transport
        self.session = session
        self.index = index
        self.decoder = RespDecoder()
        self.pending: Deque[Any] = deque()   # parsed-but-unserved requests
        self.intake: Deque[Tuple[float, Any, bool, Any]] = deque()
        self.outstanding = 0


class StoreServer:
    """Serves a :class:`KeyValueStore` to any number of connections:
    the command semantics, with :class:`EventLoopMixin` supplying when
    each request runs."""

    def __init__(self, store: KeyValueStore) -> None:
        self.store = store
        self.connections: List[ServerConnection] = []

    def accept(self, transport) -> ServerConnection:
        conn = ServerConnection(transport, self.store.session(),
                                len(self.connections))
        self.connections.append(conn)
        return conn

    def _serve_parsed(self, conn: ServerConnection, request: Any,
                      parsed) -> None:
        """Serve ``request`` given what
        :func:`~repro.cluster.client.parse_command` made of it (the
        worker pool parses at arrival and passes that along): ``None``
        for anything that is not a well-formed command."""
        if parsed is None:
            conn.transport.send(_NOT_A_COMMAND)
            return
        self._serve_command(conn, request, parsed[0].name)

    def _serve_command(self, conn: ServerConnection, request: List[bytes],
                       name: bytes) -> None:
        """Serve a request already known to be a well-formed command
        whose upper-cased name is ``name``."""
        if name == b"MONITOR":
            self._start_monitor(conn)
            return
        conn.transport.send(encode(self._execute(conn, request)))

    def _execute(self, conn: ServerConnection, request: List[bytes]) -> Any:
        """Run one command against the store, mapping store exceptions to
        RESP errors.  Subclasses (the cluster's slot-aware server) wrap
        this to inject redirects and reply filters."""
        try:
            return self.store.execute(*request, session=conn.session)
        except RespError as exc:
            return exc
        except StoreError as exc:
            return resp_error_from_store_error(exc)

    def tick(self) -> None:
        """The store's background work (what the cron runs)."""
        self.store.tick()

    def _start_monitor(self, conn: ServerConnection) -> None:
        conn.session.monitoring = True
        self.store.monitor.attach(conn.transport.send)
        conn.transport.send(b"+OK\r\n")


class EventLoopMixin:
    """Event-driven execution for a :class:`StoreServer` subclass.

    The mixin owns connection intake and the cron timer; *which* queued
    command runs next, on which simulated core, and when its reply may
    leave is the worker pool's job (:mod:`repro.cluster.workers`); the
    concrete server keeps owning command semantics (``_serve_parsed``,
    which the pool calls at dispatch with what the request was found to
    be at arrival, and friends).

    Two clocks are involved:

    * the **scheduler** -- the cluster-wide event timeline bytes travel
      on (delivery events, dispatch ticks, cron);
    * the **store clock** -- the shard's service-time meter, split across
      the pool's cores.  Executing a command advances it by the command's
      CPU/AOF/device cost; the pool uses the advance to know when that
      core is free again.

    N shards on one scheduler overlap in simulated time (each schedules
    its own completions; the heap interleaves them), which is where
    cluster parallelism comes from.
    """

    def _init_event_loop(self, pool) -> None:
        self.scheduler = pool.scheduler
        self._pool = pool
        self._cron_handle = None
        self.loop_iterations = 0
        pool.bind(self)

    # -- connection intake -------------------------------------------------

    def accept_endpoint(self, endpoint: Endpoint,
                        session: Optional[TlsSession] = None
                        ) -> ServerConnection:
        """Accept an event-driven connection: the endpoint's deliveries
        feed this connection's read queue and wake the pool.  With a
        ``session`` (the server half of a completed handshake on
        ``endpoint``) requests and replies travel as TLS records."""
        index = len(self.connections)       # the index accept() assigns
        transport = RawTransport(endpoint) if session is None \
            else TlsTransport(session)
        conn = self.accept(BufferedTransport(
            transport, self._pool.unflushed, index))
        endpoint.set_receiver(partial(self.on_readable, conn))
        return conn

    def on_readable(self, conn: ServerConnection) -> None:
        """Bytes arrived on ``conn``: parse complete requests into its
        pending queue and make sure a dispatch tick is scheduled."""
        conn.decoder.feed(conn.transport.recv_available())
        arrived = conn.decoder.drain()
        conn.pending.extend(arrived)
        if arrived:
            self._pool.note_arrivals(conn, len(arrived))
        if conn.pending:
            self._pool.wake()

    # -- background work as timer events -----------------------------------

    def start_cron(self, interval: Optional[float] = None) -> None:
        """Run the store's serverCron from recurring daemon timer events
        (expiry cycles, periodic AOF rewrite; the everysec fsync runs on
        the log device's own timer), its cost billed to the core that
        caused it (:meth:`WorkerPool.cron_tick
        <repro.cluster.workers.WorkerPool.cron_tick>`).  Daemon events
        never keep :meth:`SimClock.run_until_idle` alive by themselves."""
        if self._cron_handle is not None and self._cron_handle.active:
            return
        if interval is None:
            interval = 1.0 / HZ
        self._cron_handle = self.scheduler.every(
            interval, self._pool.cron_tick, label="server-cron")

    def stop_cron(self) -> None:
        if self._cron_handle is not None:
            self._cron_handle.cancel()
            self._cron_handle = None


class EventStoreServer(EventLoopMixin, StoreServer):
    """A single node's event-driven server.  The deployments the
    single-node experiments measure run it behind a one-core
    :class:`~repro.cluster.workers.WorkerPool` (its store metered by the
    pool's :class:`~repro.common.clock.ShardClock`) with no cron: the
    store's own per-command ``tick`` runs its expiry cycles, and the
    log device's timer, on the pool's scheduler, the everysec fsync."""

    def __init__(self, store: KeyValueStore, pool) -> None:
        super().__init__(store)
        self._init_event_loop(pool)


class EventConnection:
    """Client side of one event-driven connection.

    Replies surface through :attr:`on_reply` (push, for the open-loop
    generator) or queue in :attr:`replies` (pull).  :meth:`await_replies`
    and :meth:`call` are the closed-loop conveniences: send, then drive
    the scheduler until the replies arrive.

    With a ``psk`` the connection first runs the TLS handshake over the
    channel, then both ends seal every message into records; each
    session charges its record crypto to the scheduler.
    """

    def __init__(self, server: EventLoopMixin,
                 channel: Optional[Channel] = None,
                 bandwidth_bps: Optional[float] = None,
                 latency: Optional[float] = None,
                 psk: Optional[bytes] = None) -> None:
        self._scheduler = server.scheduler
        if channel is None:
            from ..net.channel import LAN_LATENCY, RAW_BANDWIDTH_BPS
            channel = Channel(
                clock=self._scheduler,
                bandwidth_bps=(bandwidth_bps if bandwidth_bps is not None
                               else RAW_BANDWIDTH_BPS),
                latency=latency if latency is not None else LAN_LATENCY)
        if channel.clock is not self._scheduler:
            raise ValueError(
                "the connection's channel must deliver on the server's "
                "scheduler (deliveries on a foreign clock never reach "
                "the event loop)")
        self.channel = channel
        client_end, server_end = channel.endpoints()
        if psk is None:
            self._send, self._recv = client_end.send, client_end.recv
            server_session = None
        else:
            client_session, server_session = establish_session_pair(
                channel, psk, clock=self._scheduler)
            self._send = client_session.send
            self._recv = client_session.recv_all
        self.server_connection = server.accept_endpoint(server_end,
                                                        server_session)
        self._decoder = RespDecoder()
        self.replies: Deque[Any] = deque()
        self.on_reply: Optional[Callable[[Any], None]] = None
        # When set, incoming bytes bypass the RESP decoder (a MONITOR
        # feed is a raw text stream, not a reply stream).
        self.on_raw: Optional[Callable[[bytes], None]] = None
        client_end.set_receiver(self._on_data)

    def send_command(self, *args: Any) -> None:
        self._send(encode_command(*_coerce(args)))

    def send_raw(self, data: bytes) -> None:
        self._send(data)

    def _on_data(self) -> None:
        data = self._recv()
        if self.on_raw is not None:
            self.on_raw(data)
            return
        self._decoder.feed(data)
        for value in self._decoder.drain():
            if self.on_reply is not None:
                self.on_reply(value)
            else:
                self.replies.append(value)

    def await_replies(self, count: int) -> List[Any]:
        """Drive the scheduler until ``count`` replies have been
        delivered here (everyone else's events interleave freely).

        Stops on live events, not on ``run_next`` truthiness: recurring
        daemon work (the cron) reschedules itself forever, so "the heap
        is non-empty" can never mean "a reply is still coming" -- a
        dropped reply raises instead of spinning on background work.
        """
        while len(self.replies) < count:
            if self._scheduler.pending_live_events() == 0:
                raise RespError("ERR no reply received")
            self._scheduler.run_next()
        return [self.replies.popleft() for _ in range(count)]

    def call(self, *args: Any, raise_errors: bool = True) -> Any:
        """Closed-loop over the event core: one command, driven until its
        reply has been delivered."""
        self.send_command(*args)
        [value] = self.await_replies(1)
        if raise_errors and isinstance(value, RespError):
            raise value
        return value

    # The store's spelling, so one YCSB binding
    # (:class:`~repro.ycsb.adapters.KVAdapter`) drives a store in-process
    # or over a connection.
    execute = call


def _coerce(args) -> List[bytes]:
    out = []
    for arg in args:
        if isinstance(arg, bytes):
            out.append(arg)
        elif isinstance(arg, str):
            out.append(arg.encode("utf-8"))
        elif isinstance(arg, (int, float)):
            out.append(str(arg).encode("ascii"))
        else:
            raise TypeError(f"bad argument type {type(arg).__name__}")
    return out
