"""Cluster client: slot-routed commands, pipelining, MOVED/ASK redirects.

A :class:`ClusterClient` fronts N single-node stores, each behind its own
simulated channel and RESP server, and routes every command to the shard
owning its key's hash slot.  Three things make it more than a router:

* **Pipelining** -- :meth:`ClusterClient.pipeline` batches many requests
  into *one* transmit per shard per round trip, so the channel latency is
  paid once per batch instead of once per request -- exactly the
  economics that make ``redis-benchmark -P`` and real pipelined clients
  fast.  Each reply leaves the shard when its command's service time has
  elapsed and travels while the shard works on the next one.
* **Shard parallelism** -- every shard is an event-driven server behind a
  worker pool (:mod:`repro.cluster.workers`) on **one** shared scheduler
  clock.  The client transmits every shard's batch first and then drives
  the scheduler until all replies are in, so a batch's elapsed time is
  that of the slowest shard it touched, not the sum: shards are
  independent machines whose events interleave on one heap.  Closed
  loop is simply this core driven by one client with its batch
  outstanding.
* **Topology discovery** -- the client routes from its *own cached* view
  of the slot map, while each shard's :class:`ClusterStoreServer` checks
  requests against the authoritative :class:`~repro.cluster.slots.SlotMap`
  and answers ``MOVED`` (ownership changed durably: update the cache and
  retry) or ``ASK`` (slot mid-migration: retry this one request at the
  importing shard behind an ``ASKING`` prefix).  Redirect-following is
  transparent to callers of :meth:`call` and pipelined batches alike, and
  capped (:class:`~repro.common.errors.RedirectLoopError`) so a confused
  topology cannot loop forever.

Cross-shard invariants enforced here:

* multi-key commands must keep every key in one hash slot (``CROSSSLOT``,
  checked client-side at routing *and* server-side against stale clients);
* during a slot migration the source serves keys it still holds and ASKs
  for keys it does not; the importing target serves only ``ASKING``
  requests until the slot flips;
* keyspace-wide broadcasts (``DBSIZE``/``KEYS``) exclude *importing*
  slots on the target so a key mid-copy is never double-counted.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..common.clock import Clock, ShardClock, SimClock
from ..common.errors import (
    AskError,
    ClusterError,
    CrossSlotError,
    MovedError,
    RedirectError,
    RedirectLoopError,
    StoreError,
)
from ..common.resp import RespError, encode, encode_command
from ..kvstore.commands import (
    BROADCAST,
    PER_SHARD,
    normalize_args,
    spec_of,
)
from ..kvstore.server import (
    EventConnection,
    EventStoreServer,
    ServerConnection,
    command_name,
    resp_error_from_store_error,
)
from ..engine.base import StorageEngine
from ..gdpr import node as gdpr_node
from ..gdpr.store import GDPRStore
from ..kvstore.store import KeyValueStore, StoreConfig
from ..net.channel import Channel, LAN_LATENCY, RAW_BANDWIDTH_BPS
from .migration import MigrationReceipt, MigrationTaps, SlotMigrator
from .slots import NUM_SLOTS, SlotMap, slot_for_key

# Sentinel: the replica path declined (no group, ineligible command);
# fall through to the primary round trip.
_REPLICA_MISS = object()


def _slot_of(keys: List[bytes]):
    """The hash slot of a command's keys: ``None`` without keys, an
    ``int`` when every key shares one slot, the sorted slot tuple of a
    cross-slot request."""
    if not keys:
        return None
    if len(keys) == 1:
        return slot_for_key(keys[0])
    slots = {slot_for_key(key) for key in keys}
    if len(slots) == 1:
        return slots.pop()
    return tuple(sorted(slots))


def parse_command(request: Any):
    """Everything routing, the slot check and admission need to know
    about a decoded request, worked out once: ``(spec, keys, slot)`` --
    its :class:`~repro.kvstore.commands.CommandSpec`, its key arguments
    and their hash slot (see :func:`_slot_of`) -- or ``None`` when the
    request is not a well-formed command array."""
    name = command_name(request)
    if name is None:
        return None
    spec = spec_of(name)
    keys = spec.keys(request)
    return spec, keys, _slot_of(keys)


def _tenant_prefix(tenant: str) -> bytes:
    """The wire-level namespace prefix of ``tenant``'s keys."""
    from ..tenancy.registry import TENANT_SEP
    return (tenant + TENANT_SEP).encode("utf-8")


def parse_redirect(reply: Any) -> Optional[RedirectError]:
    """Recognize a MOVED/ASK wire error; None for anything else.

    Public: every redirect-following client (the pipelined
    :class:`ClusterClient` and the open-loop driver's simulated
    clients) must agree on what counts as a redirect.
    """
    if not isinstance(reply, RespError):
        return None
    parts = str(reply).split()
    if len(parts) != 3:
        return None
    try:
        slot, shard = int(parts[1]), int(parts[2])
    except ValueError:
        return None
    if parts[0] == "MOVED":
        return MovedError(slot, shard)
    if parts[0] == "ASK":
        return AskError(slot, shard)
    return None


class ClusterStoreServer(EventStoreServer):
    """A shard's event-driven RESP server, aware of the authoritative
    slot map.  Connection intake, deferred reply flushing and the
    cron-as-timer-events machinery come from
    :class:`~repro.kvstore.server.EventLoopMixin`; dispatch belongs to
    the ``pool`` (a :class:`~repro.cluster.workers.WorkerPool`) the
    server is constructed with.

    Before executing a keyed command, the server checks the request's hash
    slot against the shared :class:`SlotMap` (the role ``clusterState``
    plays inside a real Redis node):

    * slot owned here and stable -> execute;
    * slot MIGRATING from here -> execute if every key is still present,
      ``ASK <slot> <target>`` if none are (``TRYAGAIN`` for a multi-key
      request split across moved and unmoved keys);
    * slot IMPORTING here -> execute only when the client sent ``ASKING``
      first (one-shot, per connection), else ``MOVED`` back to the owner;
    * slot owned elsewhere -> ``MOVED <slot> <owner>``.

    Multi-key requests are also CROSSSLOT-checked server-side, so a stale
    or hand-rolled client cannot smuggle a cross-slot command to a shard.
    ``DBSIZE``/``KEYS`` replies exclude keys in importing slots: while a
    slot migrates, its keys are counted at the (still-owning) source
    only.  (A key *created* mid-migration via ASK lives only on the
    target and is invisible to broadcasts until the flip -- the same
    not-yet-owned semantics Redis Cluster gives importing slots.)

    As in real Redis Cluster, only database 0 exists: ``SELECT`` is
    refused, which is what lets slot migration treat "the shard's
    keyspace" and "database 0" as the same thing.
    """

    def __init__(self, store: StorageEngine, pool, shard_index: int = 0,
                 slot_map: Optional[SlotMap] = None,
                 gdpr: Optional[GDPRStore] = None) -> None:
        super().__init__(store, pool)
        self.shard_index = shard_index
        self.slot_map = slot_map
        # Multi-tenant admission (attach_tenant_gate): one shared
        # TenantGate fronts the whole cluster; None = tenancy off.
        self.tenant_gate = None
        # The GDPR layer over ``store``, when the shard runs one: it
        # serves the GDPR.* commands (repro.gdpr.node).
        self.gdpr = gdpr

    def attach_tenant_gate(self, gate) -> None:
        """Install the cluster's shared
        :class:`~repro.tenancy.gate.TenantGate` and subscribe it to this
        shard's write/deletion streams (footprint accounting)."""
        self.tenant_gate = gate
        gate.watch_store(self.store)

    def accept(self, transport) -> ServerConnection:
        conn = super().accept(transport)
        conn.asking = False
        conn.tenant = None
        return conn

    def _serve_parsed(self, conn: ServerConnection, request: Any,
                      parsed) -> None:
        """Serve ``request`` given what :func:`parse_command` made of it
        (the worker pool parses at arrival and passes that along, so a
        command is validated, named and hashed once)."""
        if parsed is None:
            super()._serve_parsed(conn, request, None)  # protocol error
            return
        spec, keys, slot = parsed
        name = spec.name
        if name == b"ASKING":
            conn.asking = True
            conn.transport.send(b"+OK\r\n")
            return
        if name == b"TENANT":
            # Connection-level stamp, like ASKING but sticky: every
            # subsequent request on this connection executes inside the
            # named tenant's namespace and against its quotas.
            self._serve_tenant(conn, request)
            return
        asking, conn.asking = getattr(conn, "asking", False), False
        if self.slot_map is None:
            self._serve_command(conn, request, name)
            return
        if name == b"SELECT":
            conn.transport.send(encode(RespError(
                "ERR SELECT is not allowed in cluster mode")))
            return
        redirect = self._slot_check(conn, keys, slot, asking)
        if redirect is not None:
            conn.transport.send(encode(redirect))
            return
        tenant = getattr(conn, "tenant", None)
        if tenant is not None and self.tenant_gate is not None:
            try:
                self.tenant_gate.admit(tenant, spec, request, keys,
                                       self.store.clock.now())
            except StoreError as exc:
                # TENANTDENIED / QUOTAEXCEEDED reach the wire
                # unprefixed; the request never touches the engine, so
                # a throttled tenant costs only this check.
                conn.transport.send(
                    encode(resp_error_from_store_error(exc)))
                return
        if name in (b"DBSIZE", b"KEYS"):
            if tenant is not None and name == b"DBSIZE":
                reply: Any = self._tenant_dbsize(conn, tenant)
            else:
                reply = self._without_importing(
                    conn, name, self._execute(conn, request))
                if tenant is not None \
                        and not isinstance(reply, RespError):
                    prefix = _tenant_prefix(tenant)
                    reply = [key for key in reply
                             if key.startswith(prefix)]
            conn.transport.send(encode(reply))
            return
        if tenant is not None and name == b"SCAN":
            reply = self._execute(conn, request)
            if (isinstance(reply, list) and len(reply) == 2
                    and isinstance(reply[1], list)):
                prefix = _tenant_prefix(tenant)
                reply = [reply[0], [key for key in reply[1]
                                    if key.startswith(prefix)]]
            conn.transport.send(encode(reply))
            return
        if self.gdpr is not None and name in gdpr_node.HANDLERS:
            conn.transport.send(encode(gdpr_node.execute(self.gdpr, request)))
            return
        self._serve_command(conn, request, name)

    def _serve_tenant(self, conn: ServerConnection,
                      request: List[bytes]) -> None:
        if len(request) != 2:
            conn.transport.send(encode(RespError(
                "ERR wrong number of arguments for 'tenant' command")))
            return
        tenant = request[1].decode("utf-8", "replace")
        if self.tenant_gate is not None \
                and not self.tenant_gate.registry.known(tenant):
            conn.transport.send(encode(RespError(
                f"TENANTUNKNOWN no such tenant {tenant!r}")))
            return
        conn.tenant = tenant
        conn.transport.send(b"+OK\r\n")

    def _tenant_dbsize(self, conn: ServerConnection, tenant: str) -> int:
        """Tenant-scoped DBSIZE: live keys inside the tenant's prefix,
        excluding importing slots (same rule as `_without_importing`)."""
        importing = set(self.slot_map.importing_slots_of(self.shard_index))
        keys = self.store.live_keys_with_prefix(
            _tenant_prefix(tenant).decode("utf-8"),
            conn.session.db_index)
        if importing:
            keys = [key for key in keys
                    if slot_for_key(key) not in importing]
        return len(keys)

    def _holds(self, conn: ServerConnection, key: bytes) -> bool:
        return self.store.has_live_key(key, conn.session.db_index)

    def _slot_check(self, conn: ServerConnection, keys: List[bytes],
                    slot, asking: bool) -> Optional[RespError]:
        """``keys`` and ``slot`` as :func:`parse_command` reports them."""
        if slot is None:
            return None
        if isinstance(slot, tuple):
            return RespError(
                "CROSSSLOT Keys in request don't hash to the same slot")
        owner = self.slot_map.shard_of_slot(slot)
        state = self.slot_map.migration_of(slot)
        if owner == self.shard_index:
            if state is None:
                return None
            # MIGRATING source: serve what is still here, ASK for the rest.
            missing = [key for key in keys
                       if not self._holds(conn, key)]
            if not missing:
                return None
            if len(missing) < len(keys):
                return RespError(
                    "TRYAGAIN Multiple keys request during rehashing "
                    "of slot")
            return RespError(str(AskError(slot, state.target)))
        if state is not None and state.target == self.shard_index:
            if asking:
                return None
            return RespError(str(MovedError(slot, state.source)))
        return RespError(str(MovedError(slot, owner)))

    def _without_importing(self, conn: ServerConnection, name: bytes,
                           reply: Any) -> Any:
        """Drop keys in importing slots from keyspace-wide replies.

        Mid-migration both the source (authoritative) and the target
        (partial copy) hold a slot's keys; counting the importing side
        would double-count every key already copied.
        """
        importing = set(self.slot_map.importing_slots_of(self.shard_index))
        if not importing or isinstance(reply, RespError):
            return reply
        if name == b"KEYS":
            return [key for key in reply
                    if slot_for_key(key) not in importing]
        imported = sum(
            1 for key in self.store.live_keys(conn.session.db_index)
            if slot_for_key(key) in importing)
        return reply - imported


class ClusterNode:
    """One shard: a store behind its channel, slot-aware server and
    worker pool, all on the pool's scheduler.

    The store's own clock (a :class:`~repro.common.clock.ShardClock`) is
    the shard's *service-time meter*: commands charge their CPU/AOF cost
    to it, but coordination happens through scheduled events, so shards
    overlap in simulated time because their events interleave in one
    heap.  The node keeps one client connection of its own (what
    :class:`ClusterClient` talks through); :meth:`connect` opens more.

    ``store`` is a storage engine, or a
    :class:`~repro.gdpr.store.GDPRStore` over one: then ``gdpr`` is that
    layer, it serves the ``GDPR.*`` commands, its migration ``taps``
    keep its index, ledger and audit chain current through slot
    migrations, and ``store`` is the engine underneath, which every
    other command, replication and the migrator's copies reach.
    """

    def __init__(self, index: int, store,
                 channel: Channel, pool,
                 slot_map: Optional[SlotMap] = None) -> None:
        self.index = index
        self.gdpr: Optional[GDPRStore] = None
        self.taps = MigrationTaps()
        if isinstance(store, GDPRStore):
            self.gdpr, store = store, store.kv
            self.taps = gdpr_node.GDPRMigrationTaps(self.gdpr)
        self.store: StorageEngine = store
        self.clock = store.clock
        self.channel = channel
        self.pool = pool
        self.scheduler: SimClock = pool.scheduler
        self.server = ClusterStoreServer(store, pool, shard_index=index,
                                         slot_map=slot_map, gdpr=self.gdpr)
        self._connection = EventConnection(self.server, channel=channel)
        self.server.start_cron()

    def send_batch(self, batch: Sequence[List[bytes]]) -> None:
        """Transmit a pipelined batch without waiting: the requests
        travel as one message and the shard works them off its own queue
        while other shards do the same."""
        self._connection.send_raw(
            b"".join(encode_command(*argv) for argv in batch))

    def await_replies(self, count: int) -> List[Any]:
        """Drive the shared scheduler until ``count`` replies from this
        shard have arrived (other shards' events interleave freely);
        raises if they can no longer come."""
        return self._connection.await_replies(count)

    def connect(self) -> EventConnection:
        """A new client connection to this shard; the open-loop
        generator gives each simulated client its own."""
        return EventConnection(self.server,
                               bandwidth_bps=self.channel.bandwidth_bps,
                               latency=self.channel.latency)


class Pipeline:
    """Queued requests executed in one round trip per shard."""

    def __init__(self, client: "ClusterClient") -> None:
        self._client = client
        self._requests: List[Tuple[int, List[bytes]]] = []

    def __len__(self) -> int:
        return len(self._requests)

    def call(self, *args: Any, shard: Optional[int] = None) -> "Pipeline":
        argv = normalize_args(args)
        if not argv:
            raise ValueError("empty command")
        target = shard if shard is not None \
            else self._client.route(argv)
        self._requests.append((target, argv))
        return self

    def execute(self, raise_errors: bool = True) -> List[Any]:
        # Detach the queue first: if execution raises (redirect loop,
        # unknown shard), a reused pipeline must not re-submit these
        # side-effecting requests ahead of its next batch.
        requests, self._requests = self._requests, []
        replies = self._client.execute_routed(requests)
        if raise_errors:
            for reply in replies:
                if isinstance(reply, RespError):
                    raise reply
        return replies


class _Request:
    """One routed request's lifecycle across redirect retries."""

    __slots__ = ("shard", "argv", "asking", "redirects", "reply")

    def __init__(self, shard: int, argv: List[bytes]) -> None:
        self.shard = shard
        self.argv = argv
        self.asking = False
        self.redirects = 0
        self.reply: Any = None


class ClusterClient:
    """Routes commands across shards; one simulated client's view.

    The client never reads the authoritative slot map after construction:
    it routes from a private snapshot (``MOVED`` replies update it, as a
    real cluster client updates its slots table) so a live migration is
    *discovered* through redirects exactly as in Redis Cluster.
    """

    def __init__(self, nodes: Sequence[ClusterNode],
                 slot_map: Optional[SlotMap] = None,
                 clock: Optional[Clock] = None,
                 max_redirects: int = 5,
                 node_factory: Optional[Callable[..., ClusterNode]] = None
                 ) -> None:
        if not nodes:
            raise ClusterError("a cluster needs at least one shard")
        self.nodes = list(nodes)
        self.slots = slot_map if slot_map is not None \
            else SlotMap.even(len(self.nodes))
        if self.slots.num_shards > len(self.nodes):
            raise ClusterError(
                f"slot map references shard "
                f"{self.slots.num_shards - 1} but only "
                f"{len(self.nodes)} nodes exist")
        self.clock = clock if clock is not None \
            else self.nodes[0].scheduler
        if any(node.scheduler is not self.clock for node in self.nodes):
            raise ClusterError(
                "every node must run on one shared scheduler, and it "
                "must be the cluster's clock")
        self.max_redirects = max_redirects
        # Builds the node of a new shard index (add_shard), or of a
        # recovered one around its reopened store (recover_shard);
        # build_cluster supplies its own.
        self._node_factory = node_factory
        self.moved_redirects = 0
        self.ask_redirects = 0
        # Per-shard replica groups (attach_replication); a call with
        # prefer_replica=True sends an eligible read to a random replica
        # of the owning shard, and stale_replica_reads counts the ones
        # whose replica had the read key in its in-flight backlog.
        self.replication = None
        self._replica_rng = random.Random(0)
        self.replica_reads = 0
        self.stale_replica_reads = 0
        self._route: List[int] = []
        self.refresh_routing()

    # -- routing -----------------------------------------------------------

    def refresh_routing(self) -> None:
        """Resynchronize the routing cache from the authoritative slot
        map (the analogue of re-fetching ``CLUSTER SLOTS``).  Normally
        unnecessary: MOVED replies keep the cache converging lazily."""
        self._route = [self.slots.shard_of_slot(slot)
                       for slot in range(NUM_SLOTS)]

    def shard_for(self, key) -> int:
        """The shard this client would contact for ``key`` (its cached
        view, which may lag the authoritative map mid-migration)."""
        return self._route[slot_for_key(key)]

    def learn_route(self, slot: int, shard: int) -> None:
        """Record a durable ownership change (a ``MOVED`` reply) in the
        routing cache, as any client sharing this view would."""
        if not 0 <= slot < NUM_SLOTS:
            raise ClusterError(f"slot {slot} out of range")
        self._route[slot] = shard

    def route(self, argv: List[bytes]) -> int:
        """The shard an argv executes on (CROSSSLOT-checked)."""
        spec = spec_of(argv[0].upper())
        if spec.routing is PER_SHARD:
            raise ClusterError(
                f"{spec.name.decode()} has no cluster-wide meaning; pin "
                "a shard with call(..., shard=)")
        if spec.routing is BROADCAST:
            raise ClusterError(
                f"{spec.name.decode()} fans out to every shard; issue it "
                "via call(), not a pipeline, or pin a shard")
        slot = _slot_of(spec.keys(argv))
        if slot is None:
            return 0
        if isinstance(slot, tuple):
            raise CrossSlotError(
                "CROSSSLOT Keys in request don't hash to the same slot")
        return self._route[slot]

    # -- replication -------------------------------------------------------

    def attach_replication(self, delays: Sequence[float] = (0.001,)):
        """Give every shard a replication group of one replica per
        entry of ``delays`` (its one-way delay in seconds; see
        :mod:`repro.cluster.replication`).  Delivery events run on the
        shared scheduler, so replicas apply on the timeline the shard's
        writes happen on.  Slot migrations then hand replica sets off at
        the flip (``MigrationReceipt.replicas_synced``)."""
        from .replication import ClusterReplication

        if self.replication is not None:
            raise ClusterError("replication is already attached")
        self.replication = ClusterReplication(
            self.clock, [(node.index, node.store) for node in self.nodes],
            delays=delays)
        return self.replication

    def _replica_read(self, argv: List[bytes]) -> Any:
        """Serve an eligible read from a replica of the owning shard, or
        return the miss sentinel to fall through to the primary.

        The read is charged one round trip on the shard's channel shape
        (the replica is its own machine behind an equivalent link); the
        replica store itself serves from whatever state its delayed
        stream has applied -- which is exactly the stale-read exposure
        the knob exists to measure.

        Topology changes are honoured, not bypassed: a real READONLY
        replica knows the cluster state and answers ``MOVED`` when its
        primary no longer owns the slot, so a replica read through a
        stale routing cache learns the new owner (counted in
        ``moved_redirects``) and reads *that* shard's replica.  A slot
        mid-migration falls through to the primary path, which speaks
        ASK properly.
        """
        spec = spec_of(argv[0].upper())
        if self.replication is None or not spec.readonly:
            return _REPLICA_MISS
        keys = spec.keys(argv)
        if not keys:
            return _REPLICA_MISS
        shard = self.route(argv)
        slot = slot_for_key(keys[0])
        if self.slots.migration_of(slot) is not None:
            return _REPLICA_MISS
        owner = self.slots.shard_of_slot(slot)
        if owner != shard:
            # The replica's server would reply MOVED; that wasted hop
            # costs a round trip on the stale shard's channel before
            # the read retries at the new owner's replica.
            stale_channel = getattr(self.nodes[shard], "channel", None)
            if stale_channel is not None:
                nbytes = (len(encode_command(*argv))
                          + len(encode(RespError(
                              str(MovedError(slot, owner))))))
                self.clock.advance(
                    2 * stale_channel.latency
                    + nbytes / stale_channel.bandwidth_bps)
            self.moved_redirects += 1
            self.learn_route(slot, owner)
            shard = owner
        group = self.replication.groups.get(shard)
        if group is None or not group.links:
            return _REPLICA_MISS
        link = group.links[self._replica_rng.randrange(len(group.links))]
        self.replica_reads += 1
        if link.touches(keys):
            self.stale_replica_reads += 1
        try:
            reply = link.replica.execute(*argv)
        except RespError as exc:
            reply = exc
        except StoreError as exc:
            reply = resp_error_from_store_error(exc)
        channel = getattr(self.nodes[shard], "channel", None)
        if channel is not None:
            nbytes = len(encode_command(*argv)) + len(encode(reply))
            self.clock.advance(2 * channel.latency
                               + nbytes / channel.bandwidth_bps)
        return reply

    # -- execution ---------------------------------------------------------

    def call(self, *args: Any, raise_errors: bool = True,
             shard: Optional[int] = None,
             prefer_replica: bool = False) -> Any:
        """One command, one full round trip to its shard (or, for
        keyspace-wide commands, one concurrent round trip to every
        shard with the replies merged).

        ``prefer_replica`` routes an eligible single-slot read to a
        random replica of the owning shard instead of the primary;
        ineligible commands -- and clients with no replication attached
        -- fall through to the primary transparently.  Pipelines always
        hit primaries.
        """
        argv = normalize_args(args)
        if not argv:
            raise ValueError("empty command")
        if shard is None \
                and spec_of(argv[0].upper()).routing is BROADCAST:
            return self._broadcast(argv, raise_errors)
        if prefer_replica and shard is None:
            reply = self._replica_read(argv)
            if reply is not _REPLICA_MISS:
                if raise_errors and isinstance(reply, RespError):
                    raise reply
                return reply
        target = shard if shard is not None else self.route(argv)
        [reply] = self.execute_routed([(target, argv)])
        if raise_errors and isinstance(reply, RespError):
            raise reply
        return reply

    def _broadcast(self, argv: List[bytes], raise_errors: bool) -> Any:
        replies = self.execute_routed(
            [(shard, argv) for shard in range(len(self.nodes))])
        for reply in replies:
            if isinstance(reply, RespError):
                if raise_errors:
                    raise reply
                return reply
        name = argv[0].upper()
        if name == b"DBSIZE":
            return sum(replies)
        if name == b"KEYS":
            return [key for reply in replies for key in reply]
        if name in (b"FLUSHALL", b"FLUSHDB"):
            return replies[0]   # every shard said OK
        return replies          # the GDPR fan-outs: one part per shard

    def pipeline(self) -> Pipeline:
        return Pipeline(self)

    def execute_routed(self, requests: Sequence[Tuple[int, List[bytes]]]
                       ) -> List[Any]:
        """Execute pre-routed (shard, argv) requests; replies come back in
        request order.  Shards touched by the batch run concurrently: the
        batch costs the slowest shard's time, not the shards' sum.

        MOVED/ASK replies are followed transparently: redirected requests
        are regrouped and retried in further round trips (each round trip
        again concurrent across the shards it touches), so a pipelined
        batch straddling a live migration completes with at most a few
        extra round trips.  Each request may be redirected at most
        ``max_redirects`` times before
        :class:`~repro.common.errors.RedirectLoopError` is raised.
        """
        entries = [_Request(shard, argv) for shard, argv in requests]
        pending = entries
        while pending:
            self._round_trip(pending)
            retry: List[_Request] = []
            for entry in pending:
                redirect = parse_redirect(entry.reply)
                if redirect is None:
                    continue
                if not 0 <= redirect.shard < len(self.nodes):
                    continue    # cannot follow; surface the raw error
                entry.redirects += 1
                if entry.redirects > self.max_redirects:
                    raise RedirectLoopError(
                        f"{entry.argv[0].decode('ascii', 'replace')} "
                        f"request redirected {entry.redirects} times "
                        "without converging on an owner")
                if isinstance(redirect, MovedError):
                    # Durable topology change: learn it, then retry.
                    self.moved_redirects += 1
                    self.learn_route(redirect.slot, redirect.shard)
                    entry.shard, entry.asking = redirect.shard, False
                else:
                    # ASK: one-shot redirect, no routing-table update.
                    self.ask_redirects += 1
                    entry.shard, entry.asking = redirect.shard, True
                retry.append(entry)
            pending = retry
        return [entry.reply for entry in entries]

    def _round_trip(self, entries: Sequence[_Request]) -> None:
        """One concurrent round trip: every entry's request reaches its
        shard (ASKING-prefixed where flagged) and its reply is stored.

        Every shard's batch is transmitted *first*, then the shared
        scheduler is driven until all replies are in: shard overlap is
        literally the interleaving of their events on one heap.
        """
        per_shard: Dict[int, List[Tuple[Optional[_Request],
                                        List[bytes]]]] = {}
        for entry in entries:
            if not 0 <= entry.shard < len(self.nodes):
                raise ClusterError(f"unknown shard {entry.shard}")
            batch = per_shard.setdefault(entry.shard, [])
            if entry.asking:
                batch.append((None, [b"ASKING"]))
            batch.append((entry, entry.argv))
        for shard, batch in per_shard.items():
            self.nodes[shard].send_batch([argv for _, argv in batch])
        for shard, batch in per_shard.items():
            replies = self.nodes[shard].await_replies(len(batch))
            for (entry, _), reply in zip(batch, replies):
                if entry is not None:
                    entry.reply = reply

    def sync(self) -> float:
        """Drain in-flight (non-daemon) events so nothing is mid-air,
        then bring every shard clock up to cluster time (idle shards
        pass simulated time too); returns the synchronized time."""
        self.clock.run_until_idle()
        now = max([self.clock.now()]
                  + [node.clock.now() for node in self.nodes])
        self.clock.sleep_until(now)
        for node in self.nodes:
            node.clock.sleep_until(now)
            node.server.tick()
        return now

    # -- the GDPR layer's maintenance and evidence -------------------------

    def _gdpr_layers(self) -> List[Tuple[int, GDPRStore]]:
        return [(node.index, node.gdpr) for node in self.nodes
                if node.gdpr is not None]

    def flush_compliance(self) -> None:
        """Close every GDPR shard's fast-GDPR visibility window
        (write-behind drain + audit block seal); a no-op for strict
        shards."""
        for _, layer in self._gdpr_layers():
            layer.flush_compliance()

    def verify_audit_chains(self) -> Dict[int, int]:
        """Verify every GDPR shard's hash chain as {shard: records
        verified}.  Raises :class:`~repro.common.errors.AuditError` on
        any break."""
        return {index: layer.audit.verify()
                for index, layer in self._gdpr_layers()}

    def erasure_report(self) -> Dict[str, float]:
        """Cluster-wide roll-up of the GDPR shards' erasure timeliness."""
        reports = [layer.erasure_report()
                   for _, layer in self._gdpr_layers()]
        merged = {
            "events": sum(r["events"] for r in reports),
            "with_deadline": sum(r["with_deadline"] for r in reports),
            "max_lateness": max((r["max_lateness"] for r in reports),
                                default=0.0),
            "sla_breaches": sum(r["sla_breaches"] for r in reports),
        }
        weighted = sum(r["mean_lateness"] * r["with_deadline"]
                       for r in reports)
        merged["mean_lateness"] = (weighted / merged["with_deadline"]
                                   if merged["with_deadline"] else 0.0)
        return merged

    # -- topology: scale-out, rebalance, recovery --------------------------

    def add_shard(self) -> int:
        """Bring one empty shard online (scale-out) and return its index.

        The new shard owns no slots until a :meth:`rebalance` (or
        explicit migrations) hands it some, so adding one is cheap and
        safe under live traffic.  A pre-built spare node (a cluster
        built with more nodes than its slot map routes to) just comes
        into rotation; otherwise the node is built like the original
        ones (same store factory, channel, pool and tenant gate).  With
        replication attached the new shard starts *unreplicated* --
        replicating it is a deployment decision, made with
        ``replication.add_shard(index, node.store)``.
        """
        index = self.slots.add_shard()
        if index < len(self.nodes):
            return index
        if index != len(self.nodes) or self._node_factory is None:
            raise ClusterError(
                f"slot map grew to shard {index} but this cluster holds "
                f"{len(self.nodes)} nodes and cannot build more")
        self.nodes.append(self._node_factory(index))
        return index

    def rebalance_plan(self, target: int) -> List[int]:
        """The slots an even rebalance hands ``target``: a
        1/len(nodes) share of every other shard's populated slots."""
        plan: List[int] = []
        for node in self.nodes:
            if node.index == target:
                continue
            populated = sorted({slot_for_key(key)
                                for key in node.store.live_keys(0)})
            if populated:
                share = max(1, len(populated) // len(self.nodes))
                plan.extend(populated[:share])
        return plan

    def rebalance(self, target: int,
                  slots: Optional[Sequence[int]] = None,
                  batch_size: int = 16,
                  concurrency: int = 4,
                  step_interval: float = 1e-4,
                  drive: bool = True) -> List[MigrationReceipt]:
        """Migrate many slots to ``target`` as *interleaved event streams*.

        Up to ``concurrency`` :class:`SlotMigrator`\\ s run at once,
        each stepping from its own scheduled events (so no slot
        monopolizes the timeline, and live traffic -- subject rights
        included -- keeps flowing between steps); as each slot's
        ownership flips, the next queued slot starts.  ``slots``
        defaults to :meth:`rebalance_plan`.  With ``drive=True`` the
        call runs the scheduler until every migration finished and
        returns the receipts in completion order; with ``drive=False``
        the streams are scheduled and the caller drives the clock itself
        (interleaving its own foreground work), reading receipts off the
        returned list as they complete.
        """
        if not 0 <= target < len(self.nodes):
            raise ClusterError(f"target shard {target} does not exist")
        if slots is None:
            slots = self.rebalance_plan(target)
        queue = [slot for slot in dict.fromkeys(slots)
                 if self.slots.shard_of_slot(slot) != target]
        receipts: List[MigrationReceipt] = []
        total = len(queue)
        active = [0]

        def finish_one(receipt: MigrationReceipt) -> None:
            active[0] -= 1
            receipts.append(receipt)
            launch()

        def launch() -> None:
            while queue and active[0] < concurrency:
                migrator = SlotMigrator(self, queue.pop(0), target)
                active[0] += 1
                migrator.run_as_events(self.clock, batch_size=batch_size,
                                       interval=step_interval,
                                       on_done=finish_one)

        launch()
        if drive:
            while len(receipts) < total:
                # Guard on live events, not run_next() truthiness: the
                # shards' recurring cron daemons keep the heap non-empty
                # forever.
                if self.clock.pending_live_events() == 0:
                    raise ClusterError(
                        "rebalance stalled: migration events exhausted "
                        f"with {total - len(receipts)} slots unfinished")
                self.clock.run_next()
        return receipts

    def attach_autoscaler(self, targets: Optional[Sequence] = None,
                          config=None, scale_out=None, start: bool = True):
        """Close the autoscaling loop over this cluster: watch
        queueing-delay signals (``targets``, default every node's
        :class:`~repro.cluster.workers.WorkerPool`) and, when a hot
        target has no worker headroom left, **add a shard and rebalance
        into it live**.

        The default ``scale_out`` is :meth:`add_shard` followed by
        :meth:`rebalance(..., drive=False) <rebalance>`, so the slot
        migrations run as interleaved events *while traffic -- subject
        rights included -- keeps flowing*; erasure guarantees mid-scale-
        out are exactly the live-migration guarantees the migrator
        already enforces.  Returns the
        :class:`~repro.cluster.autoscale.Autoscaler`, started unless
        ``start=False``.
        """
        from .autoscale import Autoscaler

        if targets is None:
            targets = [node.pool for node in self.nodes]
        if scale_out is None:
            def scale_out(_scaler, _index: int) -> str:
                target = self.add_shard()
                self.rebalance(target, drive=False)
                return f"shard-add -> {target}"
        scaler = Autoscaler(self.clock, targets, config=config,
                            scale_out=scale_out)
        if start:
            scaler.start()
        return scaler

    def recover_shard(self, index: int) -> int:
        """Restart one crashed shard over its own devices.

        The crashed node's cron and timers stop, and its store reopens
        on a new node's clock (:meth:`~repro.engine.base.StorageEngine.
        reopen`, or a GDPR shard's :meth:`~repro.gdpr.store.GDPRStore.
        reopen`): the engine replays its durable log, a tiered engine
        recovers its cold archive, and a GDPR shard's audit log continues
        its chain while its indexes are re-derived from the decryptable
        envelopes (crypto-erased records stay unreachable).  The
        cluster's node factory builds the node around it, so it keeps
        the shard's worker pool and channel configuration.  Other shards
        are not touched; a replication group is re-homed onto the
        recovered primary and full-synced.  Returns the number of
        commands replayed.
        """
        if self._node_factory is None:
            raise ClusterError("this cluster cannot build nodes")
        old = self.nodes[index]
        if old.store.aof is None:
            raise ValueError(f"shard {index} has no AOF to recover")
        old.server.stop_cron()
        for timer in old.clock.timers:      # its devices' timers
            timer.cancel()
        node = self._node_factory(index, (old.gdpr or old.store).reopen)
        self.nodes[index] = node
        if self.replication is not None \
                and index in self.replication.groups:
            self.replication.rebuild_shard(index, node.store)
        return node.store.stats.commands_replayed

    # -- introspection -----------------------------------------------------

    def keyspace_sizes(self) -> List[int]:
        return [node.store.key_count(0) for node in self.nodes]

    def routing_snapshot(self) -> List[int]:
        """A copy of this client's cached slot -> shard table.  The
        open-loop driver seeds each simulated client's *private* routing
        cache from this, so caches diverge and re-converge through
        MOVED redirects individually, as real cluster clients do."""
        return list(self._route)


StoreFactory = Callable[[int, Clock], StorageEngine]


def build_cluster(num_shards: int,
                  store_factory: Optional[StoreFactory] = None,
                  clock: Optional[SimClock] = None,
                  bandwidth_bps: float = RAW_BANDWIDTH_BPS,
                  latency: float = LAN_LATENCY,
                  slot_map: Optional[SlotMap] = None,
                  event_driven: bool = True,
                  workers: int = 1,
                  dispatch_overhead: float = 0.0,
                  adaptive_batch: bool = False,
                  placement=None,
                  tenant_gate=None) -> ClusterClient:
    """Wire up a ready-to-use cluster.

    Every shard sits behind an event-driven server on **one** shared
    scheduler clock (``clock``, a fresh :class:`SimClock` by default):
    channels deliver bytes as scheduled events and per-shard parallelism
    falls out of event interleaving.  Each shard's store runs on its own
    :class:`~repro.common.clock.ShardClock`, the shard's service-time
    meter, split across the ``workers`` simulated cores of its
    :class:`~repro.cluster.workers.WorkerPool` (``node.pool``); the
    default single core executes one command per tick, as Redis does.
    ``dispatch_overhead`` / ``adaptive_batch`` parameterize the pool's
    batching controller (its batch bound is
    :data:`~repro.cluster.workers.MAX_BATCH`).  ``placement=True`` (or an
    explicit :class:`~repro.cluster.workers.PlacementPolicy`) turns on
    skew-aware slot placement -- hot-slot tracking, quiescence-point
    rebalancing and read splitting -- per pool; the default ``None``
    keeps the static ``slot % K`` partition.

    ``event_driven`` is a vestige: the synchronous cluster is gone, and
    the keyword survives, with ``True`` as its only legal value, until
    the frozen benchmark stops passing it.
    """
    from .workers import PlacementPolicy, WorkerPool, WorkerPoolConfig

    if not event_driven:
        raise ClusterError(
            "the synchronous cluster path was removed: every shard is "
            "event-driven (drop event_driven=False)")
    master = clock if clock is not None else SimClock()
    if not hasattr(master, "schedule_at"):
        raise ClusterError(
            "a cluster needs a scheduling clock (SimClock)")
    if workers < 1:
        raise ClusterError("a shard needs at least one worker")
    if slot_map is None:
        slot_map = SlotMap.even(num_shards)
    if store_factory is None:
        def store_factory(index: int, node_clock: Clock) -> StorageEngine:
            return KeyValueStore(StoreConfig(), clock=node_clock)
    policy = None
    if placement is not None and placement is not False:
        policy = placement if isinstance(placement, PlacementPolicy) \
            else PlacementPolicy()

    def make_node(index: int,
                  reopen: Optional[Callable[[Clock], Any]] = None
                  ) -> ClusterNode:
        # A new shard's store comes from the factory; a recovered one's
        # is the crashed store's ``reopen``, over its own devices.
        node_clock = ShardClock(master.now(), workers=workers,
                                scheduler=master)
        channel = Channel(clock=master, bandwidth_bps=bandwidth_bps,
                          latency=latency)
        store = store_factory(index, node_clock) if reopen is None \
            else reopen(node_clock)
        if store.clock is not node_clock:
            raise ClusterError(
                "store_factory must build the store on the clock it is "
                "given (the shard's service-time meter)")
        pool = WorkerPool(node_clock, master, WorkerPoolConfig(
            workers=workers,
            dispatch_overhead=dispatch_overhead,
            adaptive_batch=adaptive_batch,
            placement=policy))
        node = ClusterNode(index, store, channel, pool, slot_map=slot_map)
        if tenant_gate is not None:
            node.server.attach_tenant_gate(tenant_gate)
        return node

    return ClusterClient([make_node(index) for index in range(num_shards)],
                         slot_map=slot_map, clock=master,
                         node_factory=make_node)
