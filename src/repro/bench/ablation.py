"""Ablation studies over the design choices docs/architecture.md calls out.

These go beyond the paper's plotted data to map the spectrum it argues
for in prose:

* :data:`ABLATION_FSYNC` -- the real-time <-> eventual compliance axis
  for storage-level logging (always / everysec / no).
* :data:`ABLATION_AUDIT_BATCH` -- the same axis for the GDPR audit log:
  batch interval vs throughput vs records at risk.
* :data:`ABLATION_DEVICES` -- strict (fsync-always) logging across HDD /
  SSD / NVM, quantifying section 5.1's claim that NVM makes strict
  compliance affordable.
* :data:`ABLATION_ENCRYPTION` -- LUKS-only vs TLS-only vs both,
  confirming the paper's observation that TLS dominates the encryption
  overhead.
* :data:`ABLATION_ERASURE_PROPAGATION` -- Art. 17 across replicas: the
  erasure horizon tracks the slowest replica's delay.
* :data:`GDPR_SLOWDOWN` -- the headline: strict real-time compliance
  (every feature on, synchronous audit) vs the unmodified baseline (~20x).
"""

from __future__ import annotations

from typing import List, Optional

from ..common.clock import SimClock
from ..device.append_log import AppendLog
from ..device.latency import HDD, INTEL_750_SSD, LUKS_SSD, NVM, LatencyModel
from ..gdpr.audit import AuditDurability, AuditLog
from ..gdpr.store import GDPRConfig, GDPRStore
from ..kvstore.replication import ReplicationManager
from ..kvstore.store import KeyValueStore, StoreConfig
from ..net.tls import stunnel_channel
from ..ycsb.adapters import GDPRAdapter
from ..ycsb.runner import WorkloadRunner
from ..ycsb.workloads import CORE_WORKLOADS
from .calibration import (
    AUDIT_RECORD_CPU,
    BASE_COMMAND_CPU,
    RAW_ONE_WAY_LATENCY,
    TLS_PSK,
    deployment,
    logged_store,
    make_aof_sync,
    make_unmodified,
    raw_channel,
)
from .reporting import (Axis, Row, Scenario, scaled, share_of_first,
                        ycsb_sizes)


def _ycsb_a_throughput(adapter, clock, record_count: int,
                       operation_count: int) -> float:
    spec = CORE_WORKLOADS["A"].scaled(record_count=record_count,
                                      operation_count=operation_count)
    runner = WorkloadRunner(adapter, spec, clock, seed=11)
    runner.load()
    return runner.run(operation_count).throughput


def _system_throughput(system, record_count: int,
                       operation_count: int) -> float:
    return _ycsb_a_throughput(system.adapter, system.clock, record_count,
                              operation_count)


def _half_sizes(records: int, ops: int):
    return ycsb_sizes(records // 2, ops // 2)


THROUGHPUT = ("throughput_ops_s", scaled("throughput"))


def fsync_policy_throughput(appendfsync: Optional[str],
                            record_count: int = 300,
                            operation_count: int = 1000) -> Row:
    """YCSB-A throughput under one appendfsync policy (``None`` = the
    no-AOF baseline)."""
    system = (make_unmodified() if appendfsync is None
              else make_aof_sync(appendfsync=appendfsync))
    return {"throughput": _system_throughput(system, record_count,
                                             operation_count)}


ABLATION_FSYNC = Scenario(
    title="Ablations -- fsync policies (YCSB-A ops/s)",
    axes=(Axis("appendfsync", (None, "no", "everysec", "always")),),
    measure=fsync_policy_throughput,
    sizes=ycsb_sizes,
    columns=(("policy", lambda row, _rows:
              f"appendfsync={row['appendfsync']}" if row["appendfsync"]
              else "no-aof"),
             THROUGHPUT, ("fraction", share_of_first("throughput"))),
)


def audit_batch_point(interval: float, record_count: int = 200,
                      operation_count: int = 600) -> Row:
    """GDPR audit log at one batch interval: throughput vs exposure.

    Interval 0 = synchronous (strict real-time compliance); larger
    intervals trade durability exposure (records a crash would lose) for
    throughput -- the paper's "batch, say, once every second" knob.
    """
    clock = SimClock()
    kv = KeyValueStore(StoreConfig(command_cpu_cost=BASE_COMMAND_CPU),
                       clock=clock)
    durability = (AuditDurability.SYNC if interval == 0.0
                  else AuditDurability.BATCH)
    audit = AuditLog(
        log=AppendLog(clock=clock, latency=INTEL_750_SSD),
        clock=clock, durability=durability, batch_interval=interval,
        record_cpu_cost=AUDIT_RECORD_CPU)
    store = GDPRStore(
        kv=kv,
        config=GDPRConfig(encrypt_at_rest=False,
                          audit_durability=durability,
                          audit_batch_interval=interval),
        audit=audit)
    throughput = _ycsb_a_throughput(GDPRAdapter(store), clock,
                                    record_count, operation_count)
    return {
        "throughput": throughput,
        "records_at_risk": audit.at_risk_records(),
        # The paper's exposure metric ("one second worth of logs"):
        # a crash loses up to one batch window of audit records.
        "worst_case_exposure": interval * throughput,
    }


ABLATION_AUDIT_BATCH = Scenario(
    title="audit batch interval:",
    axes=(Axis("interval", (0.0, 0.1, 1.0, 10.0)),),
    measure=audit_batch_point,
    sizes=_half_sizes,
    columns=(("interval_s", "interval"), THROUGHPUT,
             ("records_at_risk", "records_at_risk"),
             ("worst_case_exposure", lambda row, _rows:
              int(row["worst_case_exposure"]))),
)


def device_throughput(device: LatencyModel, record_count: int = 300,
                      operation_count: int = 800) -> Row:
    """Strict logging (fsync always) on one device class.

    Section 5.1: synchronous logging to SSD/HDD is ruinous; NVM-class
    persistence barriers make strict compliance affordable.
    """
    system = make_aof_sync(appendfsync="always", device=device)
    return {"throughput": _system_throughput(system, record_count,
                                             operation_count)}


ABLATION_DEVICES = Scenario(
    title="device classes at fsync-always:",
    axes=(Axis("device", (HDD, INTEL_750_SSD, NVM)),),
    measure=device_throughput,
    sizes=ycsb_sizes,
    columns=(("device", lambda row, _rows: row["device"].name),
             ("throughput_ops_s_at_fsync_always", scaled("throughput"))),
)

def encryption_throughput(config: str, record_count: int = 300,
                          operation_count: int = 800) -> Row:
    """Plaintext vs TLS-only vs LUKS-only vs both.

    A ``luks`` configuration routes the store's AOF through a device
    charged with the LUKS per-byte crypto cost; a ``tls`` one proxies
    the wire.  Expectation (paper section 4.2): TLS dominates.
    """
    def store_of(meter):
        if "luks" not in config:
            return KeyValueStore(
                StoreConfig(command_cpu_cost=BASE_COMMAND_CPU), clock=meter)
        return KeyValueStore(
            StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, appendonly=True,
                        appendfsync="everysec"),
            clock=meter, aof_log=AppendLog(clock=meter, latency=LUKS_SSD))

    if "tls" in config:
        channel = stunnel_channel(SimClock(), latency=RAW_ONE_WAY_LATENCY)
        system = deployment(config, store_of, channel, psk=TLS_PSK)
    else:
        system = deployment(config, store_of, raw_channel(SimClock()))
    return {"throughput": _system_throughput(system, record_count,
                                             operation_count)}


ABLATION_ENCRYPTION = Scenario(
    title="encryption split:",
    axes=(Axis("config", ("plaintext", "tls-only", "luks-only",
                          "luks+tls")),),
    measure=encryption_throughput,
    sizes=ycsb_sizes,
    columns=(("config", "config"), THROUGHPUT,
             ("fraction", share_of_first("throughput"))),
)


def erasure_horizon(delay: float) -> Row:
    """Art. 17 across replicas: erasure horizon at one replication delay.

    A DEL on the primary is not GDPR erasure until every replica has
    applied it; the horizon is bounded below by the slowest replica's
    one-way delay.  (Paper section 2.1: erasure must cover "all its
    replicas and backups".)
    """
    clock = SimClock()
    primary = KeyValueStore(StoreConfig(), clock=clock)
    manager = ReplicationManager(primary)
    manager.add_replica("near", delay=0.0005)
    manager.add_replica("far", delay=delay)
    primary.execute("SET", "pii", "x")
    clock.advance(delay * 2 + 1.0)
    primary.execute("DEL", "pii")
    horizon = manager.erasure_horizon([b"pii"], step=delay / 20 + 1e-5)
    return {"erasure_horizon": horizon if horizon is not None
            else float("inf")}


ABLATION_ERASURE_PROPAGATION = Scenario(
    title="erasure propagation across replicas:",
    axes=(Axis("delay", (0.001, 0.01, 0.1, 1.0)),),
    measure=erasure_horizon,
    columns=(("replica_delay_s", "delay"),
             ("erasure_horizon_s", scaled("erasure_horizon", digits=4))),
)


def gdpr_slowdown(record_count: int = 200,
                  operation_count: int = 600) -> List[Row]:
    """The headline number and beyond.

    The paper's 20x is "logging every user request synchronously", i.e.
    the AOF-fsync-always store (``paper_20x_slowdown`` below).  The
    ``gdpr-strict`` row goes further: the *full* strict stack --
    synchronous hash-chained audit of every interaction, per-subject
    encryption, ACL checks, and metadata indexing on top of fsync-always
    AOF -- which is costlier still (two durability barriers per request,
    one on each device it touches: the audit device's, then the AOF's).
    Throughput rows are YCSB-A ops/s; the two ``*slowdown*`` rows are the
    unmodified throughput over the row above them.
    """
    unmodified = _system_throughput(make_unmodified(), record_count,
                                    operation_count)
    aof_always = _system_throughput(make_aof_sync(appendfsync="always"),
                                    record_count, operation_count)
    clock = SimClock()
    audit = AuditLog(log=AppendLog(clock=clock, latency=INTEL_750_SSD),
                     clock=clock, durability=AuditDurability.SYNC,
                     record_cpu_cost=AUDIT_RECORD_CPU)
    store = GDPRStore(kv=logged_store(clock, appendfsync="always"),
                      config=GDPRConfig(
                          encrypt_at_rest=True,
                          audit_durability=AuditDurability.SYNC),
                      audit=audit)
    strict = _ycsb_a_throughput(GDPRAdapter(store), clock, record_count,
                                operation_count)
    return [
        {"config": "unmodified", "value": unmodified},
        {"config": "aof-always", "value": aof_always},
        {"config": "paper_20x_slowdown",
         "value": unmodified / max(aof_always, 1e-9)},
        {"config": "gdpr-strict", "value": strict},
        {"config": "slowdown_x", "value": unmodified / max(strict, 1e-9)},
    ]


GDPR_SLOWDOWN = Scenario(
    title="headline slowdowns:",
    axes=(),
    measure=gdpr_slowdown,
    sizes=_half_sizes,
    columns=(("config", "config"), ("value", scaled("value", digits=2))),
)
