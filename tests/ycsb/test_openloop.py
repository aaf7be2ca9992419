"""Tests for the open-loop load generator over the event core."""

import random

import pytest

from repro.cluster import build_cluster
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.ycsb import (
    ArrivalProcess,
    OpenLoopRunner,
    WORKLOAD_B,
    WORKLOAD_E,
)

CPU = 25e-6          # service ceiling = 1/CPU = 40 kops/s


def cpu_factory(index, clock):
    return KeyValueStore(StoreConfig(command_cpu_cost=CPU, seed=index),
                         clock=clock)


def run_openloop(shards=1, clients=4, rate=60_000.0, ops=300,
                 records=60, seed=42):
    cluster = build_cluster(shards, store_factory=cpu_factory, latency=10e-6)
    spec = WORKLOAD_B.scaled(record_count=records, operation_count=ops)
    runner = OpenLoopRunner(cluster, spec, clients=clients,
                            arrival_rate=rate, seed=seed)
    runner.preload()
    return runner.run(ops)


class TestArrivalProcess:
    def test_uniform_interarrivals_are_constant(self):
        # Arrivals are Poisson only: there is no distribution to choose.
        with pytest.raises(TypeError):
            ArrivalProcess(1000.0, distribution="uniform")

    def test_poisson_interarrivals_are_seeded(self):
        one = ArrivalProcess(1000.0, rng=random.Random(7))
        two = ArrivalProcess(1000.0, rng=random.Random(7))
        assert [one.next_interarrival() for _ in range(10)] \
            == [two.next_interarrival() for _ in range(10)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ArrivalProcess(0.0)
        with pytest.raises(ValueError):
            ArrivalProcess(-10.0)


class TestOpenLoopRunner:
    def test_all_admitted_operations_complete(self):
        report = run_openloop(ops=200)
        assert report.admitted == 200
        assert report.completed == 200
        assert report.failures == 0

    def test_queue_and_service_measured_separately(self):
        report = run_openloop(clients=1, rate=60_000.0)
        # Saturated single client: ops wait in the backlog (queueing
        # delay) far longer than they spend in service.
        assert report.queue_delay.count == report.completed
        assert report.service_time.count == report.completed
        assert report.queue_delay.percentile(99) \
            > report.service_time.percentile(99)

    def test_throughput_rises_with_clients_until_ceiling(self):
        """The acceptance shape: more clients help until the shard's
        service-time ceiling, then stop helping."""
        tput = {clients: run_openloop(clients=clients).throughput
                for clients in (1, 2, 16)}
        assert tput[2] > tput[1] * 1.5
        ceiling = 1.0 / CPU
        assert tput[16] == pytest.approx(ceiling, rel=0.15)
        assert tput[16] <= ceiling * 1.01

    def test_p99_queueing_grows_past_saturation(self):
        below = run_openloop(clients=8, rate=20_000.0)
        above = run_openloop(clients=8, rate=80_000.0)
        assert above.throughput <= 1.0 / CPU * 1.01
        assert above.queue_delay.percentile(99) \
            > 10 * max(below.queue_delay.percentile(99), 1e-9)
        assert above.max_backlog > below.max_backlog

    def test_two_shards_raise_the_ceiling(self):
        one = run_openloop(shards=1, clients=16, rate=100_000.0)
        two = run_openloop(shards=2, clients=16, rate=100_000.0)
        assert two.throughput > one.throughput * 1.2

    def test_same_seed_identical_reports(self):
        one = run_openloop().summary()
        two = run_openloop().summary()
        assert one == two

    def test_same_seed_identical_event_traces(self):
        def trace():
            cluster = build_cluster(2, store_factory=cpu_factory,
                                    latency=10e-6)
            out = cluster.clock.enable_trace()
            spec = WORKLOAD_B.scaled(record_count=40,
                                     operation_count=120)
            runner = OpenLoopRunner(cluster, spec, clients=4,
                                    arrival_rate=50_000.0, seed=11)
            runner.preload()
            runner.run(120)
            return out

        assert trace() == trace()

    def test_different_seeds_differ(self):
        assert run_openloop(seed=1).summary() \
            != run_openloop(seed=2).summary()

    def test_zero_operations_admits_nothing(self):
        cluster = build_cluster(1, store_factory=cpu_factory)
        spec = WORKLOAD_B.scaled(record_count=20, operation_count=50)
        runner = OpenLoopRunner(cluster, spec, clients=2,
                                arrival_rate=10_000.0)
        runner.preload()
        report = runner.run(0)
        assert report.admitted == 0
        assert report.completed == 0

    def test_uniform_arrivals_supported(self):
        # The runner admits Poisson arrivals only; the keyword that chose
        # constant interarrivals is refused.
        cluster = build_cluster(1, store_factory=cpu_factory)
        spec = WORKLOAD_B.scaled(record_count=60, operation_count=150)
        with pytest.raises(TypeError):
            OpenLoopRunner(cluster, spec, arrival_rate=30_000.0,
                           arrival_distribution="uniform")
        report = run_openloop(rate=30_000.0, ops=150)
        assert report.completed == 150

    def test_default_cluster_hosts_an_open_loop_run(self):
        """One execution model: the cluster ``build_cluster(2)`` returns
        with no keywords is the one the open-loop driver runs on."""
        cluster = build_cluster(2)
        spec = WORKLOAD_B.scaled(record_count=30, operation_count=80)
        runner = OpenLoopRunner(cluster, spec, clients=4,
                                arrival_rate=20_000.0)
        runner.preload()
        report = runner.run(80)
        assert report.completed == 80
        assert report.failures == 0
        assert report.workers == 2          # one core per shard

    def test_closed_loop_barrier_joins_a_running_open_loop(self):
        """A closed-loop ``call`` is just one more client of the same
        core: a DBSIZE issued mid-run stops every core of the shard,
        and the open-loop connections still see their replies in
        request order."""
        cluster = build_cluster(1, store_factory=cpu_factory,
                                latency=10e-6, workers=2)
        spec = WORKLOAD_B.scaled(record_count=40, operation_count=300)
        runner = OpenLoopRunner(cluster, spec, clients=6,
                                arrival_rate=70_000.0, seed=9)
        runner.preload()
        sent, received = {}, {}
        for client in runner._clients:
            conn = client._connection(0)
            sent[client.index] = commands = []
            received[client.index] = replies = []

            def send(*argv, _send=conn.send_command, _log=commands):
                _log.append(argv[0])
                _send(*argv)

            def reply(value, _deliver=client._on_reply, _log=replies):
                _log.append(value)
                _deliver(value)

            conn.send_command, conn.on_reply = send, reply
        pool = cluster.nodes[0].pool
        runner.begin(300)
        cluster.clock.run_until_idle(deadline=cluster.clock.now() + 2e-3)
        assert 0 < runner._report.completed < 300      # mid-run
        assert cluster.call("DBSIZE") == 40
        assert pool.barrier_commands == 1
        cluster.clock.run_until_idle()
        report = runner.finish()
        assert report.completed == 300
        assert report.failures == 0
        for index, commands in sent.items():
            replies = received[index]
            assert len(replies) == len(commands)
            for command, value in zip(commands, replies):
                assert (value == "OK") == (command == "SET")

    def test_rejects_scan_workloads(self):
        cluster = build_cluster(1)
        with pytest.raises(ValueError):
            OpenLoopRunner(cluster, WORKLOAD_E)

    def test_inserts_extend_the_keyspace(self):
        cluster = build_cluster(1, store_factory=cpu_factory)
        spec = WORKLOAD_B.scaled(record_count=50, operation_count=200)
        spec = spec.__class__(**{**spec.__dict__,
                                 "name": "insert-heavy",
                                 "read_proportion": 0.5,
                                 "update_proportion": 0.0,
                                 "insert_proportion": 0.5})
        runner = OpenLoopRunner(cluster, spec, clients=4,
                                arrival_rate=50_000.0, seed=3)
        runner.preload()
        report = runner.run(200)
        assert report.completed == 200
        assert runner.insert_counter.last_value() > 50


class TestOpenLoopAcrossMigration:
    def test_load_keeps_flowing_across_a_live_migration(self):
        """Open-loop traffic follows MOVED/ASK redirects while slots
        migrate under it."""
        from repro.cluster import SlotMigrator, slot_for_key
        from repro.ycsb.generator import build_key_name

        cluster = build_cluster(2, store_factory=cpu_factory, latency=10e-6)
        spec = WORKLOAD_B.scaled(record_count=60, operation_count=250)
        runner = OpenLoopRunner(cluster, spec, clients=4,
                                arrival_rate=50_000.0, seed=5)
        runner.preload()
        # Migrate every slot shard 0 owns among the loaded keys to
        # shard 1, stepping as events interleaved with the run.
        slots = sorted({slot_for_key(build_key_name(n))
                        for n in range(60)})
        slots = [slot for slot in slots
                 if cluster.slots.shard_of_slot(slot) == 0][:5]
        for slot in slots:
            SlotMigrator(cluster, slot, 1).run_as_events(
                cluster.clock, batch_size=2, interval=2e-4)
        report = runner.run(250)
        assert report.completed == 250
        assert report.failures == 0
        for slot in slots:
            assert cluster.slots.shard_of_slot(slot) == 1
        assert report.redirects_followed > 0


class TestPerClientRoutingCaches:
    """Each simulated client keeps its own MOVED cache (no shared
    routing table), so divergent views re-converge one client at a
    time."""

    @staticmethod
    def _divergent(cluster, runner, slot):
        """Clients whose cached owner of ``slot`` is stale."""
        owner = cluster.slots.shard_of_slot(slot)
        return sum(1 for client in runner._clients
                   if client.routes[slot] != owner)

    def _runner(self, clients=4, records=60, ops=300, seed=5):
        cluster = build_cluster(2, store_factory=cpu_factory, latency=10e-6)
        spec = WORKLOAD_B.scaled(record_count=records,
                                 operation_count=ops)
        runner = OpenLoopRunner(cluster, spec, clients=clients,
                                arrival_rate=50_000.0, seed=seed)
        runner.preload()
        return cluster, runner

    def test_caches_start_from_the_cluster_snapshot(self):
        cluster, runner = self._runner()
        snapshot = cluster.routing_snapshot()
        for client in runner._clients:
            assert client.routes == snapshot
            assert client.routes is not snapshot

    def _hot_slot_runner(self, clients, ops, seed=5):
        """One record => every operation targets one known slot, so
        cache convergence is deterministic per client."""
        from repro.cluster import slot_for_key
        from repro.ycsb.generator import build_key_name

        cluster, runner = self._runner(clients=clients, records=1,
                                       ops=ops, seed=seed)
        return cluster, runner, slot_for_key(build_key_name(0))

    def test_divergent_caches_converge_one_moved_per_client(self):
        from repro.cluster import SlotMigrator

        cluster, runner, slot = self._hot_slot_runner(clients=4, ops=40)
        target = 1 - cluster.slots.shard_of_slot(slot)
        # A durable topology change behind every client's back.
        SlotMigrator(cluster, slot, target).run()
        # Every client's cache is now stale for that slot.
        assert self._divergent(cluster, runner, slot) == 4
        report = runner.run(40)
        assert report.completed == 40
        assert report.failures == 0
        # Each client absorbed exactly one MOVED of its own -- no
        # shared table taught the others.
        assert self._divergent(cluster, runner, slot) == 0
        assert report.route_updates == 4
        assert report.route_updates == runner.route_updates
        assert report.redirects_followed >= report.route_updates

    def test_route_updates_zero_without_topology_change(self):
        _, runner = self._runner(ops=200)
        report = runner.run(200)
        assert report.route_updates == 0
        assert report.redirects_followed == 0

    def test_clients_learn_independently(self):
        """A MOVED teaches only the client that received it: with fewer
        operations than clients, the untouched clients' caches stay
        stale -- divergence strictly between 0 and N."""
        from repro.cluster import SlotMigrator

        cluster, runner, slot = self._hot_slot_runner(clients=8, ops=3,
                                                      seed=13)
        target = 1 - cluster.slots.shard_of_slot(slot)
        SlotMigrator(cluster, slot, target).run()
        assert self._divergent(cluster, runner, slot) == 8
        report = runner.run(3)
        # Three operations reached at most three clients; at least five
        # caches never saw a MOVED and remain stale.
        assert report.route_updates == 3
        assert self._divergent(cluster, runner, slot) == 5
