"""Micro-benchmarks for the paper's section 4.1-4.3 supporting claims.

* :data:`MICRO_LOGGING` -- MONITOR vs slowlog vs AOF as audit
  mechanisms (section 4.1's microbenchmark that picked AOF).
* :data:`MICRO_FSYNC` -- fsync-always at ~5% of baseline and the 6x
  recovery at everysec (section 4.1's companion text to Figure 1).
* :data:`MICRO_TLS_BANDWIDTH` -- the stunnel proxies' bandwidth
  collapse (section 4.2; :func:`config_throughput` on ``luks+tls`` is
  its YCSB impact).
* :data:`MICRO_AOF_PERSISTENCE` / :data:`MICRO_REWRITE_COST` -- deleted
  keys lingering in the AOF until compaction, the periodic-rewrite
  bound, and why Redis does not compact per delete (section 4.3).
"""

from __future__ import annotations

from typing import List

from ..common.clock import SimClock
from ..device.append_log import AppendLog
from ..device.latency import INTEL_750_SSD
from ..kvstore.slowlog import Slowlog
from ..kvstore.store import KeyValueStore, StoreConfig
from ..net.channel import loopback
from ..net.tls import establish_session_pair, stunnel_channel
from ..ycsb.adapters import KVAdapter
from ..ycsb.runner import WorkloadRunner
from ..ycsb.workloads import CORE_WORKLOADS
from .calibration import BASE_COMMAND_CPU, logged_store, make_figure1_system
from .reporting import (Axis, Row, Scenario, scaled, share_of_first,
                        ycsb_sizes)


# -- section 4.1: logging mechanism comparison -------------------------------------


def logging_throughput(mechanism: str, record_count: int = 300,
                       operation_count: int = 1000) -> Row:
    """Throughput on YCSB-A under one candidate audit mechanism.

    Expected ordering (the paper's finding): AOF piggybacking beats both
    MONITOR (per-record formatting + a network stream that itself needs
    encryption) and slowlog-with-threshold-0 (per-record ring bookkeeping
    *on top of* whatever durable logging is still required -- slowlog
    entries are in-memory only, so it cannot replace the AOF).
    """
    clock = SimClock()
    if mechanism in ("none", "monitor"):
        store = KeyValueStore(
            StoreConfig(command_cpu_cost=BASE_COMMAND_CPU), clock=clock)
    else:
        # AOF with read logging (the mechanism the paper selected).
        store = logged_store(clock)
    if mechanism == "monitor":
        # Stream every command to a subscriber over its own channel,
        # which must itself be TLS-protected (the paper's objection).
        # The feed is a blocking write: the store waits for each line's
        # delivery before it moves on.
        collector, auditor = establish_session_pair(
            stunnel_channel(clock), b"monitor-psk", clock=clock)

        def stream(line: bytes) -> None:
            collector.send(line)
            clock.run_until_idle()

        store.monitor.attach(stream)
    elif mechanism == "slowlog+aof":
        # Threshold 0: ring bookkeeping per command, plus the AOF still
        # running for durability (slowlog alone is not an audit trail).
        # The Slowlog object records without a clock; model its CPU as
        # extra per-command cost.
        store.slowlog = Slowlog(threshold=0.0, max_len=1024,
                                record_cost=2e-6)
        store.config.command_cpu_cost = BASE_COMMAND_CPU + 4e-6
    spec = CORE_WORKLOADS["A"].scaled(record_count=record_count,
                                      operation_count=operation_count)
    runner = WorkloadRunner(KVAdapter(store), spec, clock, seed=7)
    runner.load()
    throughput = runner.run(operation_count).throughput
    if mechanism == "monitor":
        auditor.recv_all()
    return {"throughput": throughput}


MICRO_LOGGING = Scenario(
    title="Micro-benchmarks (sections 4.1-4.3) -- logging mechanisms "
          "on YCSB-A",
    axes=(Axis("mechanism", ("none", "aof", "monitor", "slowlog+aof")),),
    measure=logging_throughput,
    sizes=ycsb_sizes,
    columns=(("mechanism", "mechanism"),
             ("throughput_ops_s", scaled("throughput")),
             ("fraction_of_none", share_of_first("throughput"))),
)


def config_throughput(config: str, record_count: int = 500,
                      operation_count: int = 1500, seed: int = 42) -> Row:
    """YCSB-A on one Figure 1 configuration (load, then run)."""
    system = make_figure1_system(config, seed=seed)
    spec = CORE_WORKLOADS["A"].scaled(record_count=record_count,
                                      operation_count=operation_count)
    runner = WorkloadRunner(system.adapter, spec, system.clock, seed=seed)
    runner.load()
    return {"throughput": runner.run(operation_count).throughput}


# The paper's section 4.1 numbers: fsync-always at ~5% of unmodified
# (the 20x headline); everysec ~6x better than always (~30%).
MICRO_FSYNC = Scenario(
    title="section 4.1 fsync comparison (YCSB-A):",
    axes=(Axis("config", ("unmodified", "aof-always", "aof-everysec")),),
    measure=config_throughput,
    sizes=ycsb_sizes,
    columns=(("config", "config"),
             ("throughput_ops_s", scaled("throughput")),
             ("fraction_of_unmodified", share_of_first("throughput"))),
)


# -- section 4.2: TLS / stunnel ---------------------------------------------------------


def channel_bandwidth(path: str, message_bytes: int = 1 << 20,
                      messages: int = 32) -> Row:
    """Effective bulk bandwidth (Gb/s) of the raw or the proxied channel.

    Reproduces the paper's iperf-style observation: 44 Gb/s raw vs
    4.9 Gb/s through the stunnel proxies.  Stop-and-wait: each message
    is delivered before the next is sent, so serialization never
    overlaps and every message pays latency + proxy traversal.
    """
    clock = SimClock()
    channel = loopback(clock) if path == "raw" else stunnel_channel(clock)
    sender, receiver = channel.endpoints()
    start = clock.now()
    payload = b"\x00" * message_bytes
    for _ in range(messages):
        sender.send(payload)
        clock.run_until_idle()
        receiver.recv()
    return {"gbps": message_bytes * messages * 8
            / (clock.now() - start) / 1e9}


MICRO_TLS_BANDWIDTH = Scenario(
    title="channel bandwidth (Gb/s):",
    axes=(Axis("path", ("raw", "stunnel")),),
    measure=channel_bandwidth,
    columns=(("path", "path"),
             ("effective_gbps", scaled("gbps", digits=2))),
)


# -- section 4.3: deleted data persisting in the AOF ---------------------------------------


def deleted_data_persistence(rewrite_interval: float = 3600.0
                             ) -> List[Row]:
    """Delete a key, then watch the AOF until compaction purges it.

    With an hourly rewrite policy the purge is bounded by one hour --
    the paper's suggested eventual-compliance configuration.  One row
    per observed property; ``seconds until purged`` is ``None`` if the
    rewrite never fired.
    """
    clock = SimClock()
    store = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync="everysec",
                    aof_rewrite_interval=rewrite_interval),
        clock=clock)
    key = b"subject:doomed"
    store.execute("SET", key, b"personal-data")
    store.execute("DEL", key)
    after_delete = bool(store.aof.mentioned_keys((key,)))
    deleted_at = clock.now()
    seconds_until_purged = None
    # Walk simulated time until the periodic rewrite fires.
    step = max(rewrite_interval / 64.0, 1.0)
    for _ in range(200):
        clock.advance(step)
        store.tick()
        if not store.aof.mentioned_keys((key,)):
            seconds_until_purged = clock.now() - deleted_at
            break
    after_rewrite = bool(store.aof.mentioned_keys((key,)))
    return [
        {"property": "in AOF immediately after DEL", "value": after_delete},
        {"property": "in AOF after periodic rewrite",
         "value": after_rewrite},
        {"property": "seconds until purged", "value": seconds_until_purged},
    ]


MICRO_AOF_PERSISTENCE = Scenario(
    title="deleted data persisting in the AOF (hourly rewrite):",
    axes=(),
    measure=deleted_data_persistence,
    columns=(("property", "property"), ("value", "value")),
)


def rewrite_cost(live_keys: int, value_size: int = 500) -> Row:
    """Simulated cost of BGREWRITEAOF at one live dataset size (the
    reason Redis does not compact on every delete).

    The rewrite pays one fsync (constant) plus per-byte media cost, so
    the curve flattens at tiny datasets and grows linearly past the
    point where data volume dominates the barrier.
    """
    clock = SimClock()
    store = KeyValueStore(
        StoreConfig(appendonly=True), clock=clock,
        aof_log=AppendLog(clock=clock, latency=INTEL_750_SSD))
    db = store.databases[0]
    for i in range(live_keys):
        db.set_value(f"k{i}".encode(), b"v" * value_size)
    start = clock.now()
    store.rewrite_aof()
    return {"rewrite_seconds": clock.now() - start}


MICRO_REWRITE_COST = Scenario(
    title="AOF rewrite cost vs live dataset size:",
    axes=(Axis("live_keys", (100, 2000, 40_000)),),
    measure=rewrite_cost,
    columns=(("live_keys", "live_keys"),
             ("rewrite_seconds", scaled("rewrite_seconds", digits=6))),
)
