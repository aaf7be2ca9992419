"""Tests for multi-core shard execution (the worker pool).

Covers the dispatch rules (keyspace partition, control, barrier), RESP
reply ordering, the ceiling raise with more cores, adaptive batching,
live worker raises, round-robin fairness under a flood, and seeded
determinism.
"""

import pytest

from repro.cluster import (
    ClusterStoreServer,
    WorkerPool,
    build_cluster,
    slot_for_key,
)
from repro.cluster.client import parse_command
from repro.cluster.slots import SlotPlacement
from repro.cluster.workers import (
    BARRIER,
    ROUTE_BARRIER,
    ROUTE_CONTROL,
    classify,
    route_of,
    route_workers,
)
from repro.common.clock import ShardClock, SimClock
from repro.common.errors import ClusterError, UnknownCommandError
from repro.common.resp import RespError, encode_command
from repro.device.append_log import AppendLog
from repro.device.latency import INTEL_750_SSD
from repro.kvstore import REGISTRY, KeyValueStore, StoreConfig
from repro.kvstore.commands import UNKNOWN, declare, spec_of
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieredEngine
from repro.ycsb import OpenLoopRunner, WORKLOAD_B

CPU = 25e-6          # one core's ceiling = 1/CPU = 40 kops/s


def cpu_factory(index, clock):
    return KeyValueStore(StoreConfig(command_cpu_cost=CPU, seed=index),
                         clock=clock)


def make_pool_server(workers=2, connections=2, store_factory=cpu_factory,
                     **pool_opts):
    """One shard's server and pool, with ``connections`` extra client
    connections of its own."""
    node = build_cluster(1, store_factory=store_factory, workers=workers,
                         **pool_opts).nodes[0]
    conns = [node.connect() for _ in range(connections)]
    return node.server, conns, node.pool, node.clock


def with_workers(report):
    """An open-loop report's summary plus its per-worker attribution."""
    return (report.summary(), report.workers,
            report.server_queue_delay.summary(),
            report.server_service_time.summary(), report.worker_rows)


def run_openloop(workers=1, clients=8, rate=60_000.0, ops=300,
                 records=60, seed=42, **cluster_opts):
    cluster = build_cluster(1, store_factory=cpu_factory, latency=10e-6,
                            workers=workers, **cluster_opts)
    spec = WORKLOAD_B.scaled(record_count=records, operation_count=ops)
    runner = OpenLoopRunner(cluster, spec, clients=clients,
                            arrival_rate=rate, seed=seed)
    runner.preload()
    return cluster, runner.run(ops)


class TestRouting:
    def test_single_key_commands_route_by_slot(self):
        route = classify([b"GET", b"user:1"])
        assert route == slot_for_key(b"user:1")
        assert route_workers(route, 4)[0] == route % 4

    def test_same_slot_multikey_rides_one_worker(self):
        route = classify([b"DEL", b"{t}a", b"{t}b"])
        assert isinstance(route, int)

    def test_cross_worker_multikey_is_a_barrier(self):
        keys = [b"a", b"b", b"c", b"d", b"e"]
        route = classify([b"DEL"] + keys)
        assert isinstance(route, tuple)
        # Slots differing mod K on at least one worker count.
        assert any(route_workers(route, k)[0] == BARRIER for k in (2, 3, 4))

    def test_multikey_route_survives_worker_raises(self):
        # The token is the slot set, so re-resolving against a different
        # worker count is well defined either way.
        route = classify([b"DEL", b"x", b"y"])
        for count in (1, 2, 4, 8):
            assert route_workers(route, count)[0] in \
                set(range(count)) | {BARRIER}

    def test_control_and_global_commands(self):
        assert classify([b"PING"]) == ROUTE_CONTROL
        assert classify([b"INFO"]) == ROUTE_CONTROL
        assert route_workers(ROUTE_CONTROL, 4)[0] == 0
        for name in (b"FLUSHALL", b"DBSIZE", b"KEYS", b"SCAN"):
            assert classify([name]) == ROUTE_BARRIER, name
        assert route_workers(ROUTE_BARRIER, 4)[0] == BARRIER

    def test_malformed_requests_are_control(self):
        assert classify("not-a-list") == ROUTE_CONTROL
        assert classify([b"GET", 7]) == ROUTE_CONTROL
        assert classify([]) == ROUTE_CONTROL

    def test_worker_one_everything_lands_on_worker_zero(self):
        for request in ([b"GET", b"k"], [b"PING"],
                        [b"DEL", b"x", b"y"]):
            route = classify(request)
            if route != ROUTE_BARRIER:
                assert route_workers(route, 1)[0] == 0


# One row per name any engine or the cluster's server answers to:
# (arguments, keys, routing token, flag).  SLOT is the hash slot of the
# one key, SLOTS the sorted slot tuple of several; flag "w" = write,
# "r" = readonly (replica and split-read eligible), "" = neither.
SLOT, SLOTS = "slot", "slots"
CONNECTION_LEVEL = (b"ASKING", b"MONITOR", b"TENANT")
COMMAND_TABLE = {
    "APPEND": ("a v", "a", SLOT, "w"),
    "ASKING": ("", "", ROUTE_CONTROL, ""),
    "DBSIZE": ("", "", ROUTE_BARRIER, ""),
    "DEL": ("a b", "a b", SLOTS, "w"),
    "DUMP": ("a", "a", SLOT, "r"),
    "EXISTS": ("a b", "a b", SLOTS, "r"),
    "EXPIRE": ("a 1", "a", SLOT, "w"),
    "EXPIREAT": ("a 1", "a", SLOT, "w"),
    "FLUSHALL": ("", "", ROUTE_BARRIER, "w"),
    "FLUSHDB": ("", "", ROUTE_BARRIER, "w"),
    "GDPR.ACCESS": ("alice p null", "", ROUTE_BARRIER, "w"),
    "GDPR.DEL": ("a p", "a", SLOT, "w"),
    "GDPR.ERASE": ("alice p null", "", ROUTE_BARRIER, "w"),
    "GDPR.EXPORT": ("alice p json", "", ROUTE_BARRIER, "w"),
    "GDPR.GET": ("a p purpose", "a", SLOT, "w"),
    "GDPR.OBJECT": ("alice p ads", "", ROUTE_BARRIER, "w"),
    "GDPR.PURPOSE": ("ads p", "", ROUTE_BARRIER, "w"),
    "GDPR.PUT": ("a envelope p purpose", "a", SLOT, "w"),
    "GDPR.SUBJECT": ("alice", "", ROUTE_BARRIER, ""),
    "GDPRMETA": ("a alice service", "a", SLOT, "w"),
    "GET": ("a", "a", SLOT, "r"),
    "HDEL": ("a f", "a", SLOT, "w"),
    "HGET": ("a f", "a", SLOT, "r"),
    "HGETALL": ("a", "a", SLOT, "r"),
    "HLEN": ("a", "a", SLOT, "r"),
    "HMGET": ("a f", "a", SLOT, "r"),
    "HMSET": ("a f v", "a", SLOT, "w"),
    "HSET": ("a f v", "a", SLOT, "w"),
    "INCR": ("a", "a", SLOT, "w"),
    "INFO": ("", "", ROUTE_CONTROL, ""),
    "KEYS": ("*", "", ROUTE_BARRIER, ""),
    "MONITOR": ("", "", ROUTE_CONTROL, ""),
    "PERSIST": ("a", "a", SLOT, "w"),
    "PEXPIRE": ("a 1", "a", SLOT, "w"),
    "PEXPIREAT": ("a 1", "a", SLOT, "w"),
    "PING": ("", "", ROUTE_CONTROL, ""),
    "PEXPIRETIME": ("a", "a", SLOT, "r"),
    "PTTL": ("a", "a", SLOT, "r"),
    "RANGE": ("a 10", "", ROUTE_BARRIER, ""),
    "RESTORE": ("a 0 blob", "a", SLOT, "w"),
    "SCAN": ("0", "", ROUTE_BARRIER, ""),
    "SELECT": ("0", "", ROUTE_CONTROL, ""),
    "SET": ("a v", "a", SLOT, "w"),
    "SLOWLOG": ("GET", "", ROUTE_CONTROL, ""),
    "TENANT": ("acme", "", ROUTE_BARRIER, ""),
    "TTL": ("a", "a", SLOT, "r"),
    "UNLINK": ("a b", "a b", SLOTS, "w"),
    "ZADD": ("a 1 m", "a", SLOT, "w"),
    "ZRANGEBYSCORE": ("a 0 1", "a", SLOT, "r"),
    "ZREM": ("a m", "a", SLOT, "w"),
}


# The names the store stopped serving, with their rows' arguments: each
# classifies as a name nobody declared (keyed on its first argument,
# presumed a write) and the key-value engine refuses it.
REMOVED = {
    "BGREWRITEAOF": "",
    "BGSAVE": "",
    "CONFIG": "GET appendonly",
    "DECR": "a",
    "DECRBY": "a 1",
    "ECHO": "hello",
    "GETRANGE": "a 0 1",
    "GETSET": "a v",
    "HEXISTS": "a f",
    "HINCRBY": "a f 1",
    "HKEYS": "a",
    "HSETNX": "a f v",
    "HSTRLEN": "a f",
    "HVALS": "a",
    "INCRBY": "a 1",
    "INCRBYFLOAT": "a 1",
    "LINDEX": "a 1",
    "LLEN": "a",
    "LPOP": "a",
    "LPUSH": "a v",
    "LRANGE": "a 0 1",
    "MGET": "a b",
    "MSET": "a 1 b 2",
    "PSETEX": "a 1 v",
    "RANDOMKEY": "",
    "RENAME": "a b",
    "RPOP": "a",
    "RPUSH": "a v",
    "SADD": "a m",
    "SAVE": "",
    "SCARD": "a",
    "SETEX": "a 1 v",
    "SETNX": "a v",
    "SETRANGE": "a 1 v",
    "SISMEMBER": "a m",
    "SMEMBERS": "a",
    "SREM": "a m",
    "STRLEN": "a",
    "TIME": "",
    "TYPE": "a",
    "ZCARD": "a",
    "ZSCORE": "a m",
}


def table_argv(name):
    return [name.encode()] + COMMAND_TABLE[name][0].encode().split()


class TestCommandTable:
    def test_every_name_has_exactly_one_spec_and_one_row(self):
        names = (set(REGISTRY) | set(RelationalStore._HANDLERS)
                 | set(CONNECTION_LEVEL))
        assert {name.decode() for name in names} == set(COMMAND_TABLE)
        for name in names:
            assert spec_of(name) is REGISTRY[name] is not UNKNOWN
            assert spec_of(name).name == name
        with pytest.raises(ValueError, match="duplicate"):
            declare("get", arity=2)

    @pytest.mark.parametrize("name", sorted(COMMAND_TABLE) + sorted(REMOVED))
    def test_pinned_classification(self, name):
        if name in REMOVED:
            argv = [name.encode()] + REMOVED[name].encode().split()
            assert parse_command(argv)[:2] == (UNKNOWN, argv[1:2])
            with pytest.raises(UnknownCommandError, match="unknown command"):
                KeyValueStore(StoreConfig(), clock=SimClock()).execute(*argv)
            return
        _, keys, token, flag = COMMAND_TABLE[name]
        argv = table_argv(name)
        keys = keys.encode().split()
        spec, parsed_keys, slot = parse_command(argv)
        spec.check_arity(len(argv))
        assert spec is REGISTRY[name.encode()]
        assert parsed_keys == keys == spec.keys(argv)
        slots = sorted({slot_for_key(key) for key in keys})
        if token == SLOT:
            assert slot == slots[0] and len(slots) == 1
            assert route_of((spec, keys, slot)) == (slot, flag == "r")
        elif token == SLOTS:
            assert slot == tuple(slots) and len(slots) > 1
            assert route_of((spec, keys, slot)) == (slot, flag == "r")
        else:
            assert slot is None and keys == []
            assert route_of((spec, keys, slot)) == (token, False)
        assert classify(argv) == route_of((spec, keys, slot))[0]
        assert spec.write == (flag == "w")
        assert spec.readonly == (flag == "r")

    @pytest.mark.parametrize("name", ["ASKING", "MONITOR", "TENANT",
                                      "RANGE", "GDPRMETA", "GDPR.GET",
                                      "NOSUCHCMD"])
    def test_declared_without_a_handler_is_unknown_standalone(self, name):
        # The table knows the name; the key-value engine still does not.
        argv = table_argv(name) if name in COMMAND_TABLE else [name, "k"]
        with pytest.raises(UnknownCommandError, match="unknown command"):
            KeyValueStore(StoreConfig(), clock=SimClock()).execute(*argv)

    def test_echo_is_control_traffic(self):
        # PING's message is a message, not a key: no slot, no MOVED.
        assert parse_command([b"PING", b"hello"])[1:] == ([], None)
        cluster = build_cluster(2)
        for shard in (0, 1):
            assert cluster.call("PING", "hello", shard=shard) == b"hello"
        assert cluster.call("PING", "hello") == b"hello"
        assert cluster.moved_redirects == 0

    def test_range_is_per_shard_like_scan(self):
        def relational(index, clock):
            return RelationalStore(clock=clock)
        cluster = build_cluster(2, store_factory=relational)
        cluster.call("SET", "a", "1")
        owner = cluster.shard_for("a")
        for argv in (("RANGE", "a", 10), ("SCAN", "0")):
            with pytest.raises(ClusterError, match="pin a shard"):
                cluster.call(*argv)
            with pytest.raises(ClusterError, match="pin a shard"):
                cluster.pipeline().call(*argv)
        assert cluster.call("RANGE", "a", 10, shard=owner) == [b"a"]
        assert cluster.call("RANGE", "a", 10, shard=1 - owner) == []
        assert cluster.moved_redirects == 0
        assert classify([b"RANGE", b"a", b"10"]) == ROUTE_BARRIER

    def test_unknown_name_routes_by_its_first_argument(self):
        # ... to the owning shard, which answers; presumed a write, so
        # never replica or split-read eligible.
        spec, keys, slot = parse_command([b"NOSUCHCMD", b"k", b"x"])
        assert spec is UNKNOWN and keys == [b"k"]
        assert slot == slot_for_key(b"k")
        assert route_of((spec, keys, slot)) == (slot, False)
        assert classify([b"NOSUCHCMD"]) == ROUTE_CONTROL
        cluster = build_cluster(2)
        assert cluster.route([b"NOSUCHCMD", b"k"]) == cluster.shard_for("k")
        with pytest.raises(RespError, match="unknown command 'NOSUCHCMD'"):
            cluster.call("NOSUCHCMD", "k")
        assert cluster.moved_redirects == 0
        # Write-stream records keep their key for migration/replication.
        assert parse_command([b"pexpireat", b"k", b"1"])[1] == [b"k"]
        assert parse_command([b"GDPRMETA", b"k", b"alice", b"ads"])[1] \
            == [b"k"]
        # A batched GDPRMETA names one key per (key, owner, purposes) row.
        assert parse_command([b"GDPRMETA", b"k1", b"alice", b"ads",
                              b"k2", b"bob", b"", b"k3", b"alice",
                              b"billing,ads"])[1] == [b"k1", b"k2", b"k3"]


# (set-up write, read): the reads the hand-kept list had left out, and
# the removed reads among them, which no replica ever serves.
NEWLY_REPLICA_ELIGIBLE = [
    (("SET", "k", "hello"), ("GETRANGE", "k", 1, 3)),
    (("SET", "k", "hello"), ("DUMP", "k")),
    (("HSET", "k", "f", "v"), ("HEXISTS", "k", "f")),
    (("HSET", "k", "f", "v"), ("HKEYS", "k")),
    (("HSET", "k", "f", "v"), ("HVALS", "k")),
    (("HSET", "k", "f", "v"), ("HSTRLEN", "k", "f")),
    (("SET", "k", "ab"), ("LINDEX", "k", 1)),
    (("ZADD", "k", 1, "m"), ("ZRANGEBYSCORE", "k", 0, 2)),
]


@pytest.mark.parametrize("write, read", NEWLY_REPLICA_ELIGIBLE,
                         ids=[read[0] for _, read in NEWLY_REPLICA_ELIGIBLE])
def test_every_readonly_command_is_served_by_a_drained_replica(write, read):
    cluster = build_cluster(1)
    cluster.attach_replication(delays=[0.0])
    cluster.call(*write)
    cluster.clock.advance(0.001)        # the write's delivery lands
    if read[0] in REMOVED:
        # Presumed a write, it goes to the primary, which refuses it.
        with pytest.raises(RespError, match="unknown command"):
            cluster.call(*read, prefer_replica=True)
        assert cluster.replica_reads == 0
        return
    primary = cluster.nodes[0].store.execute(*read)
    assert primary not in (None, 0, [])
    assert cluster.call(*read, prefer_replica=True) == primary
    assert (cluster.replica_reads, cluster.stale_replica_reads) == (1, 0)


class TestRouteWorkers:
    def test_static_matches_slot_mod_k(self):
        route = classify([b"GET", b"user:1"])
        for count in (1, 2, 4):
            assert route_workers(route, count) == (route % count,)
            assert route_workers(route, count)[0] == route % count

    def test_control_and_barrier_tokens(self):
        assert route_workers(ROUTE_CONTROL, 4) == (0,)
        assert route_workers(ROUTE_BARRIER, 4) == (BARRIER,)

    def test_classify_tuple_route_is_the_sorted_slot_set(self):
        keys = [b"alpha", b"beta", b"gamma"]
        request = [b"DEL"] + keys
        route = classify(request)
        assert route == tuple(sorted({slot_for_key(key)
                                      for key in keys}))

    def test_tuple_route_collapses_or_barriers_per_worker_count(self):
        # Slots 2 and 6 agree mod 2 and mod 4; 2 and 7 never agree.
        assert route_workers((2, 6), 2) == (0,)
        assert route_workers((2, 6), 4) == (2,)
        assert route_workers((2, 7), 2) == (BARRIER,)

    def test_placement_override_rehomes_and_barriers(self):
        placement = SlotPlacement(2)
        placement.assign(2, 1)
        # Single-key traffic follows the override...
        assert route_workers(2, 2, placement) == (1,)
        # ...so a multikey route whose slots used to share a core now
        # straddles two and degrades to a barrier...
        assert route_workers((2, 6), 2, placement) == (BARRIER,)
        # ...while one whose slots are re-homed together rides a core.
        placement.assign(7, 1)
        assert route_workers((2, 7), 2, placement) == (1,)

    def test_split_fans_reads_only(self):
        placement = SlotPlacement(2)
        placement.split(3, (0, 1))
        assert route_workers(3, 2, placement, readonly=True) == (0, 1)
        assert route_workers(3, 2, placement, readonly=False) == (1,)


def _key_on_worker(worker, count):
    """A key whose slot lands on ``worker`` under ``slot % count``."""
    for number in range(1000):
        key = f"k{number}"
        if slot_for_key(key.encode()) % count == worker:
            return key
    raise AssertionError("no key found")


class TestRouteCacheInvalidation:
    def test_cached_route_repartitions_after_shed(self):
        server, (conn, _), pool, _ = make_pool_server(workers=2)
        key = _key_on_worker(1, 2)
        conn.call("SET", key, "v")      # warms the resolved-route cache
        route, readonly = route_of(parse_command([b"GET", key.encode()]))
        assert pool._resolve(route, readonly) == (route % 2,)
        pool.remove_worker()
        server.scheduler.run_until_idle()
        # The regression this guards: the cached candidate set must be
        # dropped with the shed worker, not keep pointing at it.
        assert pool._resolve(route, readonly) == (0,)
        conn.replies.clear()
        assert conn.call("GET", key) == b"v"

    def test_cached_route_repartitions_after_raise(self):
        server, (conn, _), pool, _ = make_pool_server(workers=1)
        key = _key_on_worker(1, 2)      # lands on worker 1 once K=2
        conn.call("SET", key, "v")
        route, readonly = route_of(parse_command([b"GET", key.encode()]))
        assert pool._resolve(route, readonly) == (0,)
        pool.add_worker()
        server.scheduler.run_until_idle()
        assert pool._resolve(route, readonly) == (1,)
        conn.replies.clear()
        assert conn.call("GET", key) == b"v"


class TestReplyOrderAndBarriers:
    def test_pipelined_replies_in_request_order_across_workers(self):
        server, (conn, _), pool, _ = make_pool_server(workers=4)
        for index in range(12):
            conn.send_command("SET", f"k{index}", index)
        server.scheduler.run_until_idle()
        assert list(conn.replies) == ["OK"] * 12
        conn.replies.clear()
        for index in range(12):
            conn.send_command("GET", f"k{index}")
        server.scheduler.run_until_idle()
        assert list(conn.replies) \
            == [str(i).encode() for i in range(12)]
        assert sum(worker.commands
                   for worker in pool.workers + pool.retired) == 24

    def test_barrier_between_writes_keeps_order(self):
        server, (conn, _), pool, _ = make_pool_server(workers=4)
        conn.send_command("SET", "a", "1")
        conn.send_command("SET", "b", "2")
        conn.send_command("DBSIZE")
        conn.send_command("SET", "c", "3")
        server.scheduler.run_until_idle()
        assert list(conn.replies) == ["OK", "OK", 2, "OK"]
        assert pool.barrier_commands == 1

    def test_barrier_charges_every_core(self):
        server, (conn, _), pool, shard_clock = make_pool_server(workers=4)
        for index in range(8):
            conn.send_command("SET", f"k{index}", index)
        server.scheduler.run_until_idle()
        # Cores diverged while serving the partitioned writes...
        frontiers = {w.now() for w in shard_clock.workers}
        conn.send_command("FLUSHALL")
        server.scheduler.run_until_idle()
        # ...but the whole-keyspace command stopped the world: every
        # core sits at the same (advanced) frontier afterwards.
        aligned = {w.now() for w in shard_clock.workers}
        assert len(aligned) == 1
        assert aligned.pop() >= max(frontiers)

    def test_flood_cannot_starve_neighbour(self):
        """Round-robin holds when both connections target the *same*
        worker: the single op completes long before the flood drains."""
        server, (flood, single), pool, _ = make_pool_server(workers=4)
        finishes = {}
        flood.on_reply = lambda _: finishes.setdefault(
            "flood", []).append(server.scheduler.now())
        single.on_reply = lambda _: finishes.setdefault(
            "single", []).append(server.scheduler.now())
        for _ in range(8):
            flood.send_command("SET", "a", "1")
        single.send_command("SET", "a", "2")
        server.scheduler.run_until_idle()
        assert len(finishes["flood"]) == 8
        assert finishes["single"][0] < finishes["flood"][2]

    def test_flood_on_one_worker_does_not_block_other_workers(self):
        """Commands for an idle core run concurrently with a flood
        pinned to a busy core -- the point of the pool."""
        server, (flood, other), pool, shard_clock = \
            make_pool_server(workers=2)
        hot = next(f"h{i}" for i in range(64)
                   if slot_for_key(f"h{i}".encode()) % 2 == 0)
        cold = next(f"c{i}" for i in range(64)
                    if slot_for_key(f"c{i}".encode()) % 2 == 1)
        for _ in range(10):
            flood.send_command("SET", hot, "1")
        for _ in range(10):
            other.send_command("SET", cold, "2")
        server.scheduler.run_until_idle()
        # 20 commands at CPU each, but the two streams ran on two cores:
        # the makespan is ~10 * CPU, not ~20 * CPU.
        assert server.scheduler.now() < 15 * CPU
        rows = {row["worker"]: row["commands"]
                for row in pool.worker_rows()}
        assert rows[0] == 10 and rows[1] == 10


class TestCeiling:
    def test_four_workers_at_least_double_the_ceiling(self):
        _, one = run_openloop(workers=1, clients=16, rate=160_000.0,
                              ops=400)
        _, four = run_openloop(workers=4, clients=16, rate=160_000.0,
                               ops=400)
        assert one.throughput == pytest.approx(1.0 / CPU, rel=0.05)
        assert four.throughput > 2.0 * one.throughput

    def test_report_carries_worker_attribution(self):
        cluster, report = run_openloop(workers=4, clients=16,
                                       rate=120_000.0, ops=400)
        assert report.workers == 4
        assert len(report.worker_rows) == 4
        served = sum(row["commands"] for row in report.worker_rows)
        assert served >= report.completed
        assert report.server_queue_delay.count >= report.completed
        # summary() stays byte-stable for the artifacts.
        assert "worker_rows" not in report.summary()


class TestAdaptiveBatching:
    def test_batch_grows_under_backlog(self):
        server, (conn, _), pool, _ = make_pool_server(
            workers=1, adaptive_batch=True, dispatch_overhead=5e-6)
        for index in range(64):
            conn.send_command("SET", f"k{index}", index)
        server.scheduler.run_until_idle()
        # Burst of 64 with a batch controller: far fewer dispatches
        # than commands (a fixed batch of 1 would pay 64).
        worker = pool.workers[0]
        assert worker.commands == 64
        assert worker.dispatches < 16
        assert worker.batch > 1

    def test_batch_shrinks_when_delay_is_low(self):
        server, (conn, _), pool, _ = make_pool_server(
            workers=1, adaptive_batch=True, dispatch_overhead=5e-6)
        for index in range(64):
            conn.send_command("SET", f"k{index}", index)
        server.scheduler.run_until_idle()
        grown = pool.workers[0].batch
        assert grown > 1
        # One-at-a-time traffic: head delay stays under BATCH_LOW_DELAY,
        # so the budget decays back toward one.
        for index in range(grown + 8):
            conn.send_command("GET", f"k{index}")
            server.scheduler.run_until_idle()
        assert pool.workers[0].batch < grown

    def test_fixed_batch_without_flag(self):
        server, (conn, _), pool, _ = make_pool_server(
            workers=1, adaptive_batch=False)
        for index in range(32):
            conn.send_command("SET", f"k{index}", index)
        server.scheduler.run_until_idle()
        assert pool.workers[0].batch == 1
        assert pool.workers[0].dispatches == 32

    def test_batched_replies_flush_in_order(self):
        server, (conn, _), pool, _ = make_pool_server(
            workers=2, adaptive_batch=True, dispatch_overhead=5e-6)
        for index in range(32):
            conn.send_command("SET", f"k{index}", index)
        for index in range(32):
            conn.send_command("GET", f"k{index}")
        server.scheduler.run_until_idle()
        assert list(conn.replies) \
            == ["OK"] * 32 + [str(i).encode() for i in range(32)]


class TestLiveWorkerRaise:
    def test_add_worker_applies_at_quiescence(self):
        server, (conn, _), pool, shard_clock = make_pool_server(workers=1)
        conn.send_command("SET", "a", "1")
        server.scheduler.run_until_idle()
        heading = pool.add_worker()
        assert heading == 2
        server.scheduler.run_until_idle()
        assert pool.num_workers == 2
        assert shard_clock.num_workers == 2
        assert pool.resizes and pool.resizes[-1][1] == 2
        # The raised pool still serves correctly on both cores.
        for index in range(8):
            conn.send_command("SET", f"k{index}", index)
            conn.send_command("GET", f"k{index}")
        server.scheduler.run_until_idle()
        conn.replies.clear()
        assert conn.call("GET", "k3") == b"3"
        assert sum(row["commands"] > 0
                   for row in pool.worker_rows()) == 2

    def test_new_worker_starts_at_the_resize_instant(self):
        server, (conn, _), pool, shard_clock = make_pool_server(workers=1)
        for index in range(16):
            conn.send_command("SET", f"k{index}", index)
        server.scheduler.run_until_idle()
        frontier = shard_clock.now()
        pool.add_worker()
        server.scheduler.run_until_idle()
        assert shard_clock.workers[1].now() >= frontier
        assert shard_clock.workers[1].busy_seconds == 0.0


class TestLiveWorkerShed:
    def test_remove_worker_applies_at_quiescence(self):
        server, (conn, _), pool, shard_clock = make_pool_server(workers=2)
        for index in range(8):
            conn.send_command("SET", f"k{index}", index)
        server.scheduler.run_until_idle()
        heading = pool.remove_worker()
        assert heading == 1
        server.scheduler.run_until_idle()
        assert pool.num_workers == 1
        assert shard_clock.num_workers == 1
        assert pool.resizes and pool.resizes[-1][1] == 1
        assert len(pool.retired) == 1
        # The shed core's history keeps counting in the merged totals.
        assert sum(worker.commands
                   for worker in pool.workers + pool.retired) == 8
        # The survivor serves the whole keyspace, in order.
        conn.replies.clear()
        for index in range(8):
            conn.send_command("GET", f"k{index}")
        server.scheduler.run_until_idle()
        assert list(conn.replies) \
            == [str(i).encode() for i in range(8)]

    def test_shed_mid_stream_preserves_reply_order(self):
        server, (conn, _), pool, _ = make_pool_server(workers=2)
        for index in range(16):
            conn.send_command("SET", f"k{index}", index)
        pool.remove_worker()       # requested while commands are queued
        for index in range(16):
            conn.send_command("GET", f"k{index}")
        server.scheduler.run_until_idle()
        assert list(conn.replies) \
            == ["OK"] * 16 + [str(i).encode() for i in range(16)]
        assert pool.num_workers == 1

    def test_never_below_one_worker(self):
        _, _, pool, _ = make_pool_server(workers=1)
        with pytest.raises(ValueError):
            pool.remove_worker()

    def test_shard_clock_frontier_never_goes_backwards(self):
        shard = ShardClock(0.0, workers=2)
        shard.activate(shard.workers[1])
        shard.advance(5.0)          # worker 1 owns the frontier
        shard.release()
        before = shard.now()
        shard.remove_worker()
        assert shard.now() >= before
        assert shard.num_workers == 1

    def test_cold_autoscaled_pool_returns_to_one_worker(self):
        from repro.cluster import Autoscaler, AutoscaleConfig
        cluster = build_cluster(1, store_factory=cpu_factory,
                                latency=10e-6, workers=2)
        pool = cluster.nodes[0].pool
        scaler = Autoscaler(
            cluster.clock, [pool],
            AutoscaleConfig(interval=1e-3, low_delay=50e-6,
                            cooldown=5e-3))
        spec = WORKLOAD_B.scaled(record_count=40, operation_count=200)
        runner = OpenLoopRunner(cluster, spec, clients=4,
                                arrival_rate=5_000.0, seed=7)
        runner.preload()
        scaler.start()
        report = runner.run(200)
        scaler.stop()
        assert any(event.action == "worker-shed"
                   for event in scaler.events)
        assert pool.num_workers == 1
        # The shed never perturbed the stream: every op completed and
        # none failed (per-connection reply order is what completion
        # accounting rides on).
        assert report.completed == 200
        assert report.failures == 0


def _logged_kv(clock, log):
    return KeyValueStore(
        StoreConfig(command_cpu_cost=CPU, appendonly=True,
                    appendfsync="everysec"),
        clock=clock, aof_log=log)


def _logged_relational(clock, log):
    return RelationalStore(
        SqlConfig(statement_cpu_cost=CPU, wal_fsync="everysec"),
        clock=clock, wal_log=log)


#: shard engine -> ``factory(clock, log)``, each writing an everysec log.
LOGGED_ENGINES = {
    "redislike": _logged_kv,
    "relational": _logged_relational,
    "tiered": lambda clock, log: TieredEngine(_logged_kv(clock, log)),
}


class TestAofAttribution:
    def _aof_pool_server(self, workers=2, engine="redislike"):
        def aof_factory(index, clock):
            return LOGGED_ENGINES[engine](
                clock, AppendLog(clock=clock, latency=INTEL_750_SSD))

        return make_pool_server(workers=workers,
                                store_factory=aof_factory)

    @pytest.mark.parametrize("engine", sorted(LOGGED_ENGINES))
    def test_the_cron_bills_the_writing_worker_and_its_fsync_no_core(
            self, engine):
        """The cron's own work -- here the active expiry of a key, whose
        deletion is logged -- lands on the core that last wrote the log
        (regression: the pool followed the writer through an ``aof``
        attribute only the key-value store had, so a relational or
        tiered shard's cron was billed to core 0).  The timer's
        everysec fsync is queued on the device: no request waits for
        it, so it bills no core."""
        server, (conn, _), pool, shard_clock = self._aof_pool_server(
            engine=engine)
        log = server.store.aof_log
        write_key = next(f"w{i}" for i in range(64)
                         if slot_for_key(f"w{i}".encode()) % 2 == 1)
        conn.send_command("SET", write_key, "v", "PXAT", "500")
        conn.send_command("GET", write_key)
        server.scheduler.run_until_idle()
        writer, reader = pool.workers[1], pool.workers[0]
        busy = [worker.clock.busy_seconds for worker in pool.workers]
        fsyncs = log.fsyncs
        # Carry the daemon cron past the deadline and across the
        # everysec boundary with foreground work that costs nothing
        # itself.
        server.scheduler.schedule_after(1.5, lambda: None, label="work")
        server.scheduler.run_until_idle()
        assert log.fsyncs == fsyncs + 1
        # The expiry's device time landed on the core that wrote...
        assert 0.0 < writer.aof_seconds < INTEL_750_SSD.fsync
        assert writer.clock.busy_seconds - busy[1] == pytest.approx(
            writer.aof_seconds)
        # ...and only there: the other core was not stopped.
        assert reader.aof_seconds == 0.0
        assert reader.clock.busy_seconds == busy[0]
        assert pool.worker_rows()[1]["aof_seconds"] == writer.aof_seconds

    def test_the_device_timer_bills_its_fsync_to_no_core(self):
        """The everysec fsync is the log device's timer, not the cron's:
        with the cron stopped one firing still fsyncs once, queued on the
        device, and no core pays its device time."""
        server, (conn, _), pool, _ = self._aof_pool_server()
        server.stop_cron()
        log = server.store.aof_log
        write_key = next(f"w{i}" for i in range(64)
                         if slot_for_key(f"w{i}".encode()) % 2 == 1)
        conn.send_command("SET", write_key, "v")
        server.scheduler.run_until_idle()
        busy = [worker.clock.busy_seconds for worker in pool.workers]
        fsyncs = log.fsyncs
        server.scheduler.run_until_idle(deadline=1.5)
        assert log.fsyncs == fsyncs + 1
        assert log.exposed_bytes([log.file]) > 0     # in flight
        assert [worker.clock.busy_seconds
                for worker in pool.workers] == busy
        assert [worker.aof_seconds for worker in pool.workers] == [0.0, 0.0]
        # It lands once the device's clock passes idle_at (the next
        # firing carries it there).
        server.scheduler.run_until_idle(deadline=2.5)
        assert log.exposed_bytes([log.file]) == 0

    def test_attribution_follows_the_last_writer(self):
        server, (conn, _), pool, _ = self._aof_pool_server()
        key_w0 = next(f"a{i}" for i in range(64)
                      if slot_for_key(f"a{i}".encode()) % 2 == 0)
        key_w1 = next(f"b{i}" for i in range(64)
                      if slot_for_key(f"b{i}".encode()) % 2 == 1)
        conn.send_command("SET", key_w1, "1", "PXAT", "500")
        conn.send_command("SET", key_w0, "2", "PXAT", "500")  # worker 0 last
        server.scheduler.run_until_idle()
        server.scheduler.schedule_after(1.5, lambda: None, label="work")
        server.scheduler.run_until_idle()
        # Both keys' expiry bills worker 0; the fsync bills nobody.
        assert 0.0 < pool.workers[0].aof_seconds < INTEL_750_SSD.fsync
        assert pool.workers[1].aof_seconds == 0.0


class TestDeterminism:
    def test_same_seed_same_workers_identical_traces(self):
        def trace():
            cluster = build_cluster(1, store_factory=cpu_factory,
                                    latency=10e-6, workers=2,
                                    adaptive_batch=True,
                                    dispatch_overhead=2e-6)
            out = cluster.clock.enable_trace()
            spec = WORKLOAD_B.scaled(record_count=40,
                                     operation_count=150)
            runner = OpenLoopRunner(cluster, spec, clients=4,
                                    arrival_rate=70_000.0, seed=11)
            runner.preload()
            runner.run(150)
            return out

        assert trace() == trace()

    def test_same_seed_identical_reports(self):
        _, one = run_openloop(workers=4, rate=100_000.0)
        _, two = run_openloop(workers=4, rate=100_000.0)
        assert with_workers(one) == with_workers(two)

    def test_backlog_accounting_with_pool(self):
        _, report = run_openloop(workers=2, clients=4, rate=100_000.0,
                                 ops=300)
        assert report.admitted == 300
        assert report.completed == 300
        assert report.failures == 0
        assert report.max_backlog >= 0


class TestBuildClusterWiring:
    def test_workers_must_be_positive(self):
        with pytest.raises(ClusterError):
            build_cluster(1, workers=0)

    def test_every_node_has_a_pool(self):
        for workers in (1, 3):
            cluster = build_cluster(2, store_factory=cpu_factory,
                                    workers=workers)
            for node in cluster.nodes:
                assert isinstance(node.pool, WorkerPool)
                assert node.pool.num_workers == workers
                assert isinstance(node.clock, ShardClock)
        assert all(isinstance(node.pool, WorkerPool)
                   for node in build_cluster(2).nodes)

    def test_removed_modes_are_refused(self):
        with pytest.raises(ClusterError, match="removed"):
            build_cluster(1, event_driven=False)
        with pytest.raises(TypeError):
            build_cluster(1, parallel=False)
        # The frozen benchmark still spells the only mode out.
        assert build_cluster(1, event_driven=True).call("PING") == "PONG"

    def test_pool_rejects_foreign_store_clock(self):
        store = KeyValueStore(StoreConfig(command_cpu_cost=CPU),
                              clock=SimClock())
        pool = WorkerPool(ShardClock(0.0, workers=2), SimClock())
        with pytest.raises(ValueError, match="ShardClock"):
            ClusterStoreServer(store, pool)


PROTOCOL_ERROR = RespError("ERR protocol error: expected a command array")


class TestProtocolErrorsOnTheEventPath:
    """Malformed requests reach the pool as control commands and are
    answered in line with a protocol error -- per-connection reply order
    holds while another connection keeps a different core busy."""

    def test_three_malformed_values_get_three_errors(self):
        cluster = build_cluster(2, workers=2)
        conn = cluster.nodes[0].connect()
        conn.send_raw(b":1\r\n*1\r\n:5\r\n*0\r\n")
        cluster.clock.run_until_idle()
        assert list(conn.replies) == [PROTOCOL_ERROR] * 3

    def test_interleaved_with_commands_on_two_connections(self):
        cluster = build_cluster(2, store_factory=cpu_factory, workers=2)
        node = cluster.nodes[0]
        mine = [f"m{i}" for i in range(400)
                if cluster.shard_for(f"m{i}") == 0]
        # Malformed requests ride worker 0 with the control commands; keep
        # this connection's keyed commands there and the neighbour's on 1.
        zero = next(k for k in mine if slot_for_key(k) % 2 == 0)
        one = next(k for k in mine if slot_for_key(k) % 2 == 1)
        first, second = node.connect(), node.connect()
        first.send_raw(encode_command("SET", zero, "a") + b":1\r\n"
                       + encode_command("GET", zero) + b"*1\r\n:5\r\n"
                       + b"*0\r\n" + encode_command("SET", zero, "b"))
        for index in range(4):
            second.send_command("SET", one, index)
        second.send_raw(b"*0\r\n")
        second.send_command("GET", one)
        cluster.clock.run_until_idle()
        assert list(first.replies) == [
            "OK", PROTOCOL_ERROR, b"a", PROTOCOL_ERROR, PROTOCOL_ERROR,
            "OK"]
        assert list(second.replies) == ["OK"] * 4 + [PROTOCOL_ERROR, b"3"]
        rows = {row["worker"]: row["commands"]
                for row in node.pool.worker_rows()}
        assert rows == {0: 7, 1: 5}
