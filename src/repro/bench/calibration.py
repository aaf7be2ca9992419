"""Calibrated simulated-time constants and system factories.

Every constant below has a physical derivation; together they make the
simulated stack land near the paper's absolute numbers so that its *ratios*
(5%, 30%, 6x, 20x) emerge from mechanism:

``BASE_COMMAND_CPU`` (25 us)
    Server-side CPU per command.  With the raw-channel round trip
    (2 x 10 us one-way) this puts the unmodified store at ~22 kops/s --
    the paper's Figure 1 baseline on a quad-core Xeon 2.8 GHz.

``RAW_ONE_WAY_LATENCY`` (10 us)
    Loopback/ToR one-way latency between YCSB and the store.

``AOF_RECORD_BASE_COST`` (75 us) and ``AOF_RECORD_PER_BYTE`` (30 ns/B)
    End-to-end cost of pushing one record down the AOF pipeline:
    serialization, write(2), kernel copy, filesystem journal interference,
    and amortized bio-thread fsync stalls.  Calibrated against the paper's
    measured everysec point (throughput ~30% of baseline when every
    interaction, reads included, is logged).  The everysec fsync itself
    is queued on the device by its timer (as Redis runs it on a
    background thread) and charges no command, so these stalls are
    counted here once.  Given this anchor, the *always* policy lands at
    ~5% purely because each op additionally waits for the device fsync
    (INTEL_750_SSD.fsync, 0.8 ms), and intermediate batch intervals
    interpolate -- those ratios are emergent.

``AUDIT_RECORD_CPU`` (5 us)
    CPU to format and hash-chain one GDPR audit record, before any
    device cost.

TLS/proxy constants live in :mod:`repro.net` (bandwidth 44 -> 4.9 Gb/s and
2 x 30 us proxy traversals are the paper's own measurements); LUKS crypto
throughput is the ``LUKS_SSD`` preset in :mod:`repro.device.latency`.

Every networked configuration is a :func:`deployment`: the store behind
a one-core event-driven server, driven closed-loop by one
:class:`~repro.kvstore.server.EventConnection`, so the round trip the
YCSB runner times is wire + server record crypto + service + wire on the
scheduler clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..cluster.workers import WorkerPool
from ..common.clock import Clock, ShardClock, SimClock
from ..device.append_log import AppendLog
from ..device.latency import INTEL_750_SSD, LatencyModel
from ..kvstore.server import EventConnection, EventStoreServer
from ..kvstore.store import KeyValueStore, StoreConfig
from ..net.channel import Channel, RAW_BANDWIDTH_BPS
from ..net.tls import stunnel_channel
from ..ycsb.adapters import KVAdapter, StorageAdapter

BASE_COMMAND_CPU = 25e-6
RAW_ONE_WAY_LATENCY = 10e-6
AOF_RECORD_BASE_COST = 75e-6
AOF_RECORD_PER_BYTE = 30e-9
AUDIT_RECORD_CPU = 5e-6

TLS_PSK = b"repro-figure1-psk"


@dataclass
class SystemUnderTest:
    """A configured stack plus the handles benchmarks need."""

    name: str
    clock: SimClock
    store: KeyValueStore
    adapter: StorageAdapter
    client: Optional[EventConnection] = None
    channel: Optional[Channel] = None


def logged_store(clock: SimClock, appendfsync: str = "everysec",
                 log_reads: bool = True,
                 device: LatencyModel = INTEL_750_SSD,
                 seed: int = 0) -> KeyValueStore:
    """The calibrated AOF-logged store every compliant configuration
    starts from: per-command CPU plus the AOF record costs above, the
    log on its own ``device``."""
    return KeyValueStore(
        StoreConfig(command_cpu_cost=BASE_COMMAND_CPU,
                    appendonly=True, appendfsync=appendfsync,
                    aof_log_reads=log_reads,
                    aof_record_base_cost=AOF_RECORD_BASE_COST,
                    aof_record_per_byte_cost=AOF_RECORD_PER_BYTE,
                    seed=seed),
        clock=clock, aof_log=AppendLog(clock=clock, latency=device))


def deployment(name: str, store_of: Callable[[Clock], KeyValueStore],
               channel: Channel, psk: Optional[bytes] = None
               ) -> SystemUnderTest:
    """``store_of(meter)`` served by a one-core event-driven server on
    ``channel``'s scheduler, one closed-loop connection driving it
    (through TLS sessions when ``psk`` is given).  The store is built on
    the server's service meter, a one-core
    :class:`~repro.common.clock.ShardClock`."""
    scheduler = channel.clock
    meter = ShardClock(scheduler.now(), scheduler=scheduler)
    server = EventStoreServer(store_of(meter), WorkerPool(meter, scheduler))
    client = EventConnection(server, channel=channel, psk=psk)
    return SystemUnderTest(name=name, clock=scheduler, store=server.store,
                           adapter=KVAdapter(client), client=client,
                           channel=channel)


def raw_channel(clock: SimClock) -> Channel:
    """The unproxied YCSB <-> store wire."""
    return Channel(clock=clock, bandwidth_bps=RAW_BANDWIDTH_BPS,
                   latency=RAW_ONE_WAY_LATENCY)


def make_unmodified(clock: Optional[SimClock] = None,
                    seed: int = 0) -> SystemUnderTest:
    """Baseline: no AOF, plaintext channel -- Figure 1 'Unmodified'."""
    clock = clock if clock is not None else SimClock()
    return deployment(
        "unmodified",
        lambda meter: KeyValueStore(
            StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, seed=seed),
            clock=meter),
        raw_channel(clock))


def make_aof_sync(clock: Optional[SimClock] = None,
                  appendfsync: str = "everysec",
                  log_reads: bool = True,
                  device: LatencyModel = INTEL_750_SSD,
                  seed: int = 0) -> SystemUnderTest:
    """Figure 1 'AOF w/ sync': every interaction logged to the AOF.

    ``appendfsync='always'`` is the strict real-time configuration the
    text reports at ~5% of baseline; ``'everysec'`` is the plotted ~30%.
    """
    clock = clock if clock is not None else SimClock()
    name = f"aof-{appendfsync}" + ("" if log_reads else "-writesonly")
    return deployment(
        name,
        lambda meter: logged_store(meter, appendfsync, log_reads, device,
                                   seed),
        raw_channel(clock))


def make_luks_tls(clock: Optional[SimClock] = None,
                  seed: int = 0) -> SystemUnderTest:
    """Figure 1 'LUKS + TLS': encrypted at rest and in transit.

    The wire goes through the stunnel-characterized channel (bandwidth
    collapsed to 4.9 Gb/s, two proxy traversals per message) with the
    TLS record layer on both ends.  Behind it is the unlogged store: the
    paper's default-persistence Redis, whose RDB save to the dm-crypt
    volume runs off the request path, so at rest costs the figure
    nothing.  What at-rest encryption costs per byte a log moves is
    ``ablation_encryption``'s ``luks-only`` and ``luks+tls`` rows (the
    ``LUKS_SSD`` preset).
    """
    clock = clock if clock is not None else SimClock()
    return deployment(
        "luks+tls",
        lambda meter: KeyValueStore(
            StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, seed=seed),
            clock=meter),
        stunnel_channel(clock, latency=RAW_ONE_WAY_LATENCY), psk=TLS_PSK)


FIGURE1_CONFIGS: Tuple[str, ...] = ("unmodified", "aof-everysec",
                                    "luks+tls")


def make_figure1_system(config: str,
                        clock: Optional[SimClock] = None,
                        seed: int = 0) -> SystemUnderTest:
    if config == "unmodified":
        return make_unmodified(clock, seed=seed)
    if config == "aof-everysec":
        return make_aof_sync(clock, appendfsync="everysec", seed=seed)
    if config == "aof-always":
        return make_aof_sync(clock, appendfsync="always", seed=seed)
    if config == "luks+tls":
        return make_luks_tls(clock, seed=seed)
    raise ValueError(f"unknown Figure 1 configuration {config!r}")
