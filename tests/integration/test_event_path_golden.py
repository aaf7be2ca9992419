"""Golden event path: the one-test proof that a change to the cluster's
hot path moved no dispatch, no flush, no charge and no event timestamp.

Sibling of ``test_device_bytes_golden.py``, for the path that file never
enters: RESP over event-driven channels into ``EventLoopMixin`` servers
behind ``WorkerPool`` cores on one scheduler.  A seeded 2 shards x 2
workers, adaptive-batch, AOF-logged open-loop mini-run (400 ops from 8
clients, half offered below saturation and half far above it) with a
``MONITOR`` bystander connection on shard 0 and a barrier command
(``DBSIZE``) landing mid-run at each rate pins:

* sha256 of each shard's AOF bytes (which command ran, in which order);
* the final scheduler time;
* sha256 of the per-op ``(kind, start, finish)`` list (every event
  timestamp a client can observe);
* the bytes the ``MONITOR`` connection received *and when* -- the feed
  is written into a bystander's buffered transport and leaves with the
  next batch completion, so this pins the flush order too;
* per-worker ``commands`` / ``dispatches`` / final ``batch`` (batch
  membership and the adaptive controller's trajectory).

The number of scheduler events fired is deliberately **not** pinned: a
dispatch tick that is provably the next event may run inline.

The digests were recorded at a7ca112 (the parent of PR 16), before any
source change.  A deliberate change to batching policy, placement, the
wire format or a cost constant re-records them and says so in CHANGES.md.
"""

import hashlib

from repro.cluster import build_cluster
from repro.device.append_log import AppendLog
from repro.device.latency import INTEL_750_SSD
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.ycsb import OpenLoopRunner, WORKLOAD_A

SHARDS, WORKERS, CLIENTS = 2, 2, 8
RECORDS = 60
OPS_PER_RATE = 200
RATES = (8_000.0, 120_000.0)      # below / far above the 2x2 ceiling
BARRIERS_AFTER = (0.012, 0.029)   # seconds into the run: one mid each rate


class _RecordingRunner(OpenLoopRunner):
    """Keeps every completed op's ``(kind, start, finish)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ops = []

    def _complete(self, client, op):
        super()._complete(client, op)
        self.ops.append((op.kind, op.start, op.finish))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run():
    logs = []

    def factory(index, clock):
        log = AppendLog(clock=clock, latency=INTEL_750_SSD,
                        name=f"shard{index}.aof")
        logs.append(log)
        return KeyValueStore(
            StoreConfig(command_cpu_cost=25e-6, appendonly=True,
                        appendfsync="everysec", aof_log_reads=True,
                        aof_record_base_cost=75e-6,
                        aof_record_per_byte_cost=30e-9, seed=index),
            clock=clock, aof_log=log)

    cluster = build_cluster(SHARDS, store_factory=factory, latency=10e-6,
                            workers=WORKERS, adaptive_batch=True)
    clock = cluster.clock
    spec = WORKLOAD_A.scaled(record_count=RECORDS,
                             operation_count=OPS_PER_RATE * len(RATES))
    runner = _RecordingRunner(cluster, spec, clients=CLIENTS,
                              arrival_rate=RATES[0], seed=16)
    runner.preload()

    feed = []                           # (delivery time, bytes)
    watcher = cluster.nodes[0].connect()
    assert watcher.call("MONITOR") == "OK"
    watcher.on_raw = lambda data: feed.append((clock.now(), data))

    admin = cluster.nodes[0].connect()
    for delay in BARRIERS_AFTER:
        # Daemon: the barrier must land inside a rate's run, not hold the
        # previous run open until it is due.
        clock.schedule_after(delay, lambda: admin.send_command("DBSIZE"),
                             label="barrier", daemon=True)

    for rate in RATES:
        runner.set_arrival_rate(rate)
        report = runner.run(OPS_PER_RATE)
        assert report.completed == OPS_PER_RATE and report.failures == 0
    assert sum(cluster.keyspace_sizes()) == RECORDS

    return {
        "aof": {log.name: _sha(log.read_all()) for log in logs},
        "now": repr(clock.now()),
        "ops": _sha(repr(runner.ops).encode()),
        "ops_n": len(runner.ops),
        "admin_replies": list(admin.replies),
        "barriers": [node.pool.barrier_commands for node in cluster.nodes],
        "monitor_bytes": sum(len(data) for _, data in feed),
        "monitor": _sha(b"".join(data for _, data in feed)),
        "monitor_deliveries": _sha(repr(feed).encode()),
        "workers": [
            [(w.commands, w.dispatches, w.batch) for w in node.pool.workers]
            for node in cluster.nodes],
    }


# Recorded at a7ca112 (the parent of PR 16), before any source change.
GOLDEN = {
    "aof": {
        "shard0.aof": "9182c7daf2bc4c53c94593450721f168"
                      "a254cbaf76116500553c009e84897bb5",
        "shard1.aof": "7e385d75e5d4c44b16ff1b6d2eb49eb8"
                      "7865deab3dc1c7715fc1faf3d6105f51",
    },
    "now": "0.037622688415390834",
    "ops": "59184a361f0c7d70f819ca5050f1ff9d"
           "45ba15fd34e953c5bc5e2fd34f2f7547",
    "ops_n": 400,
    "admin_replies": [30, 30],
    "barriers": [2, 0],
    "monitor_bytes": 149432,
    "monitor": "2e43a0238814bbd5d633fd95693d9499"
               "9c180e46f3174b23116b416eda52b1fb",
    "monitor_deliveries": "4be0c05103076d8a5bf3ddd1f1ec5a6f"
                          "b0697d73fef1f99e57ff4822f5da628b",
    "workers": [[(122, 88, 4), (139, 101, 2)], [(93, 84, 4), (49, 49, 2)]],
}


def test_run_repeats_exactly():
    assert _run() == _run()


def test_event_path_matches_the_recorded_parent():
    assert _run() == GOLDEN
