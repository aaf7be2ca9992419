"""Ablation studies over the design choices docs/architecture.md calls out.

These go beyond the paper's plotted data to map the spectrum it argues
for in prose:

* :func:`fsync_policy_sweep` -- the real-time <-> eventual compliance axis
  for storage-level logging (always / everysec / no).
* :func:`audit_batch_sweep` -- the same axis for the GDPR audit log:
  batch interval vs throughput vs records at risk.
* :func:`device_sweep` -- strict (fsync-always) logging across HDD / SSD /
  NVM, quantifying section 5.1's claim that NVM makes strict compliance
  affordable.
* :func:`encryption_split` -- LUKS-only vs TLS-only vs both, confirming
  the paper's observation that TLS dominates the encryption overhead.
* :func:`gdpr_slowdown` -- the headline: strict real-time compliance
  (every feature on, synchronous audit) vs the unmodified baseline (~20x).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..common.clock import SimClock
from ..device.append_log import AppendLog
from ..device.latency import HDD, INTEL_750_SSD, NVM, LatencyModel
from ..gdpr.audit import AuditDurability, AuditLog
from ..gdpr.store import GDPRConfig, GDPRStore
from ..kvstore.store import KeyValueStore, StoreConfig
from ..net.channel import Channel, RAW_BANDWIDTH_BPS
from ..net.tls import stunnel_channel
from ..kvstore.server import connect_plain, connect_tls
from ..ycsb.adapters import ClientAdapter, GDPRAdapter
from ..ycsb.runner import WorkloadRunner
from ..ycsb.workloads import CORE_WORKLOADS
from .calibration import (
    AOF_RECORD_BASE_COST,
    AOF_RECORD_PER_BYTE,
    BASE_COMMAND_CPU,
    RAW_ONE_WAY_LATENCY,
    TLS_PSK,
    make_aof_sync,
    make_unmodified,
)


def _ycsb_a_throughput(adapter, clock, record_count: int,
                       operation_count: int) -> float:
    spec = CORE_WORKLOADS["A"].scaled(record_count=record_count,
                                      operation_count=operation_count)
    runner = WorkloadRunner(adapter, spec, clock, seed=11)
    runner.load()
    return runner.run(operation_count).throughput


def fsync_policy_sweep(record_count: int = 300,
                       operation_count: int = 1000) -> Dict[str, float]:
    """Throughput per appendfsync policy (plus the no-AOF baseline)."""
    results = {"no-aof": _system_throughput(make_unmodified(),
                                            record_count, operation_count)}
    for policy in ("no", "everysec", "always"):
        system = make_aof_sync(appendfsync=policy)
        results[f"appendfsync={policy}"] = _system_throughput(
            system, record_count, operation_count)
    return results


def _system_throughput(system, record_count: int,
                       operation_count: int) -> float:
    return _ycsb_a_throughput(system.adapter, system.clock, record_count,
                              operation_count)


def audit_batch_sweep(intervals: Tuple[float, ...] = (0.0, 0.1, 1.0, 10.0),
                      record_count: int = 200,
                      operation_count: int = 600
                      ) -> List[Dict[str, float]]:
    """GDPR audit log: batch interval vs throughput vs exposure.

    Interval 0 = synchronous (strict real-time compliance); larger
    intervals trade durability exposure (records a crash would lose) for
    throughput -- the paper's "batch, say, once every second" knob.
    """
    rows = []
    for interval in intervals:
        clock = SimClock()
        kv = KeyValueStore(
            StoreConfig(command_cpu_cost=BASE_COMMAND_CPU),
            clock=clock)
        durability = (AuditDurability.SYNC if interval == 0.0
                      else AuditDurability.BATCH)
        audit = AuditLog(
            log=AppendLog(clock=clock, latency=INTEL_750_SSD),
            clock=clock, durability=durability, batch_interval=interval,
            record_cpu_cost=5e-6)
        store = GDPRStore(
            kv=kv,
            config=GDPRConfig(encrypt_at_rest=False,
                              audit_durability=durability,
                              audit_batch_interval=interval),
            audit=audit)
        adapter = GDPRAdapter(store)
        throughput = _ycsb_a_throughput(adapter, clock, record_count,
                                        operation_count)
        rows.append({
            "interval_s": interval,
            "throughput": throughput,
            "records_at_risk": float(audit.at_risk_records()),
            # The paper's exposure metric ("one second worth of logs"):
            # a crash loses up to one batch window of audit records.
            "worst_case_exposure": (0.0 if interval == 0.0
                                    else interval * throughput),
        })
    return rows


def device_sweep(record_count: int = 300, operation_count: int = 800
                 ) -> Dict[str, float]:
    """Strict logging (fsync always) across device classes.

    Section 5.1: synchronous logging to SSD/HDD is ruinous; NVM-class
    persistence barriers make strict compliance affordable.
    """
    results = {}
    for device in (HDD, INTEL_750_SSD, NVM):
        system = make_aof_sync(appendfsync="always", device=device)
        results[device.name] = _system_throughput(system, record_count,
                                                  operation_count)
    return results


def encryption_split(record_count: int = 300, operation_count: int = 800
                     ) -> Dict[str, float]:
    """Plaintext vs TLS-only vs LUKS-only vs both.

    The LUKS-only configuration routes the store's AOF through a device
    charged with the LUKS per-byte crypto cost; the TLS-only one proxies
    the wire.  Expectation (paper section 4.2): TLS dominates.
    """
    from ..device.luks import CRYPTO_COST_PER_BYTE

    results: Dict[str, float] = {}

    results["plaintext"] = _system_throughput(
        make_unmodified(), record_count, operation_count)

    # TLS only.
    clock = SimClock()
    store = KeyValueStore(StoreConfig(command_cpu_cost=BASE_COMMAND_CPU),
                          clock=clock)
    channel = stunnel_channel(clock, latency=RAW_ONE_WAY_LATENCY)
    client = connect_tls(store, channel, TLS_PSK, clock=clock)
    results["tls-only"] = _ycsb_a_throughput(
        ClientAdapter(client), clock, record_count, operation_count)

    # LUKS only: plaintext wire; persistence pays the crypto per byte.
    clock = SimClock()
    luks_device = LatencyModel(
        name="ssd+luks",
        write_syscall=INTEL_750_SSD.write_syscall,
        read_syscall=INTEL_750_SSD.read_syscall,
        fsync=INTEL_750_SSD.fsync,
        per_byte_write=INTEL_750_SSD.per_byte_write + CRYPTO_COST_PER_BYTE,
        per_byte_read=INTEL_750_SSD.per_byte_read + CRYPTO_COST_PER_BYTE)
    store = KeyValueStore(
        StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, appendonly=True,
                    appendfsync="everysec"),
        clock=clock, aof_log=AppendLog(clock=clock, latency=luks_device))
    channel = Channel(clock=clock, bandwidth_bps=RAW_BANDWIDTH_BPS,
                      latency=RAW_ONE_WAY_LATENCY)
    client = connect_plain(store, channel)
    results["luks-only"] = _ycsb_a_throughput(
        ClientAdapter(client), clock, record_count, operation_count)

    # Both.
    clock = SimClock()
    store = KeyValueStore(
        StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, appendonly=True,
                    appendfsync="everysec"),
        clock=clock, aof_log=AppendLog(clock=clock, latency=luks_device))
    channel = stunnel_channel(clock, latency=RAW_ONE_WAY_LATENCY)
    client = connect_tls(store, channel, TLS_PSK, clock=clock)
    results["luks+tls"] = _ycsb_a_throughput(
        ClientAdapter(client), clock, record_count, operation_count)
    return results


def erasure_propagation(delays: Tuple[float, ...] = (0.001, 0.01, 0.1, 1.0)
                        ) -> List[Dict[str, float]]:
    """Art. 17 across replicas: erasure horizon vs replication delay.

    A DEL on the primary is not GDPR erasure until every replica has
    applied it; the horizon is bounded below by the slowest replica's
    one-way delay.  (Paper section 2.1: erasure must cover "all its
    replicas and backups".)
    """
    from ..kvstore.replication import ReplicationManager

    rows = []
    for delay in delays:
        clock = SimClock()
        primary = KeyValueStore(StoreConfig(), clock=clock)
        manager = ReplicationManager(primary)
        manager.add_replica("near", delay=0.0005)
        manager.add_replica("far", delay=delay)
        primary.execute("SET", "pii", "x")
        clock.advance(delay * 2 + 1.0)
        manager.pump()
        primary.execute("DEL", "pii")
        horizon = manager.erasure_horizon(b"pii", step=delay / 20 + 1e-5)
        rows.append({"replica_delay_s": delay,
                     "erasure_horizon_s": horizon
                     if horizon is not None else float("inf")})
    return rows


def gdpr_slowdown(record_count: int = 200,
                  operation_count: int = 600) -> Dict[str, float]:
    """The headline number and beyond.

    The paper's 20x is "logging every user request synchronously", i.e.
    the AOF-fsync-always store (``paper_20x_slowdown`` below).  The
    ``gdpr-strict`` row goes further: the *full* strict stack --
    synchronous hash-chained audit of every interaction, per-subject
    encryption, ACL checks, and metadata indexing on top of fsync-always
    AOF -- which is costlier still (two durability barriers per op).
    """
    results = {"unmodified": _system_throughput(
        make_unmodified(), record_count, operation_count)}
    results["aof-always"] = _system_throughput(
        make_aof_sync(appendfsync="always"), record_count,
        operation_count)
    results["paper_20x_slowdown"] = (results["unmodified"]
                                     / max(results["aof-always"], 1e-9))

    clock = SimClock()
    kv = KeyValueStore(
        StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, appendonly=True,
                    appendfsync="always", aof_log_reads=True,
                    aof_record_base_cost=AOF_RECORD_BASE_COST,
                    aof_record_per_byte_cost=AOF_RECORD_PER_BYTE),
        clock=clock, aof_log=AppendLog(clock=clock, latency=INTEL_750_SSD))
    audit = AuditLog(log=AppendLog(clock=clock, latency=INTEL_750_SSD),
                     clock=clock, durability=AuditDurability.SYNC,
                     record_cpu_cost=5e-6)
    store = GDPRStore(kv=kv,
                      config=GDPRConfig(
                          encrypt_at_rest=True,
                          audit_durability=AuditDurability.SYNC),
                      audit=audit)
    results["gdpr-strict"] = _ycsb_a_throughput(
        GDPRAdapter(store), clock, record_count, operation_count)

    results["slowdown_x"] = (results["unmodified"]
                             / max(results["gdpr-strict"], 1e-9))
    return results
