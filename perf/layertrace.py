"""Outside-in layer tracing: spans around each layer's entry points.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces each
entry point listed in :data:`LAYERS` with a recording wrapper -- class
attributes for methods; for module-level functions the defining module's
binding *and* every ``repro`` module that imported the function by name --
and :meth:`Tracer.remove` puts every original back.

A span records its layer, the op it belongs to, its parent span, host
start/end (``perf_counter_ns``) and simulated start/end (the stack's
``clock.now()``).  Two clocks, two attribution rules:

* **host self time** = span duration minus the durations of its child
  spans;
* **simulated self time** = the seconds *charged* while the span was the
  innermost open one.  Simulated time only moves through ``advance()``
  (``SimClock``, and the per-shard ``ShardClock`` meters of the event-driven
  cluster), so wrapping those three methods attributes every charged second
  to exactly one layer -- ROADMAP's cost ledger, done from outside.  On the
  event-driven path the wire does not charge anyone (delivery is a scheduled
  event), so the delay of every delivery scheduled from inside
  ``Channel.transmit`` is booked as that span's simulated *wait*; so is the
  time a command is held because its worker's batch replies as one.

The conservation check falls out: charged + waited seconds per op must add
up to the end-to-end simulated latency the driver measured independently.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# layer -> entry points, "module:function" or "module:Class.method".
LAYERS: Dict[str, Tuple[str, ...]] = {
    "ycsb.gen": (
        "repro.ycsb.generator:FieldGenerator.build_values",
        "repro.ycsb.generator:FieldGenerator.build_update",
        "repro.ycsb.distributions:ScrambledZipfianGenerator.next_value",
        "repro.ycsb.distributions:DiscreteGenerator.next_value",
    ),
    "ycsb.adapter": (
        "repro.ycsb.adapters:GDPRAdapter.read",
        "repro.ycsb.adapters:GDPRAdapter.update",
        "repro.ycsb.adapters:GDPRAdapter.insert",
    ),
    "gdpr.store": (
        "repro.gdpr.store:GDPRStore.put",
        "repro.gdpr.store:GDPRStore.get",
        "repro.gdpr.store:GDPRStore.delete",
    ),
    "gdpr.audit": (
        "repro.gdpr.audit:AuditLog.append",
        "repro.gdpr.audit:AuditLog.seal_block",
        "repro.gdpr.audit:AuditLog.sync",
    ),
    "gdpr.indexing": (
        "repro.gdpr.indexing:MetadataIndex.add",
        "repro.gdpr.indexing:MetadataIndex.remove",
        "repro.gdpr.indexing:MetadataIndex.keys_of_owner",
        "repro.gdpr.indexing:WriteBehindIndexer.enqueue",
        "repro.gdpr.indexing:WriteBehindIndexer.flush",
    ),
    "gdpr.rights": (
        "repro.gdpr.rights:right_of_access",
        "repro.gdpr.rights:right_to_erasure",
        "repro.gdpr.rights:right_to_portability",
    ),
    "crypto.cipher": (
        "repro.crypto.cipher:AuthenticatedCipher.seal",
        "repro.crypto.cipher:AuthenticatedCipher.open",
        "repro.crypto.cipher:StreamCipher.transform",
    ),
    "crypto.keystore": (
        "repro.crypto.keystore:KeyStore.cipher_for",
        "repro.crypto.keystore:KeyStore.get_key",
        "repro.crypto.keystore:KeyStore.create_key",
        "repro.crypto.keystore:KeyStore.erase_key",
    ),
    "kvstore.store": ("repro.kvstore.store:KeyValueStore.execute",),
    "kvstore.aof": (       # WalWriter subclasses AofWriter unchanged
        "repro.kvstore.aof:AofWriter.feed_command",
        "repro.kvstore.aof:AofWriter.post_command",
        "repro.kvstore.aof:AofWriter.tick",
    ),
    "kvstore.server": ("repro.kvstore.server:EventLoopMixin.on_readable",),
    "sqlstore.engine": ("repro.sqlstore.engine:RelationalStore.execute",),
    "sqlstore.planner": ("repro.sqlstore.planner:PlanCache.prepare",),
    "tiering.engine": (
        "repro.tiering.engine:TieredEngine.execute",
        "repro.tiering.engine:TieredEngine.tick",
        "repro.tiering.engine:TieredEngine.demote_idle",
    ),
    "tiering.segment": (
        "repro.tiering.segment:ColdSegmentStore.seal",
        "repro.tiering.segment:ColdSegmentStore.lookup",
        "repro.tiering.segment:ColdSegmentStore.open_value",
        "repro.tiering.segment:ColdSegmentStore.erase_subject",
        "repro.tiering.segment:ColdSegmentStore.tombstone_key",
    ),
    "device.append_log": (
        "repro.device.append_log:AppendLog.flush",
        "repro.device.append_log:AppendLog.fsync",
    ),
    "net.channel": (
        "repro.net.channel:Channel.transmit",
        "repro.net.channel:Endpoint.recv",
    ),
    "common.resp": (
        "repro.common.resp:encode_command",
        "repro.common.resp:encode",
        "repro.common.resp:RespDecoder.feed",
        "repro.common.resp:RespDecoder.next_value",
    ),
    "common.clock": ("repro.common.clock:SimClock.run_next",),
    "cluster.client": (    # what the open-loop clients use of it
        "repro.cluster.client:parse_redirect",
        "repro.cluster.client:ClusterNode.connect",
        "repro.cluster.client:ClusterNode.send_batch",
        "repro.cluster.client:ClusterNode.await_replies",
    ),
    "cluster.workers": (   # _tick is the scheduled dispatch entry
        "repro.cluster.workers:WorkerPool.note_arrivals",
        "repro.cluster.workers:WorkerPool.wake",
        "repro.cluster.workers:WorkerPool.cron_tick",
        "repro.cluster.workers:WorkerPool._tick",
    ),
}

LAYER_NAMES = tuple(LAYERS)
WIRE_LAYER = LAYER_NAMES.index("net.channel")
ENGINE_LAYER = LAYER_NAMES.index("kvstore.store")
BATCH_REPLY_LABEL = "worker-reply"  # how WorkerPool labels a batch's replies

# Span fields (a span is a list, for speed).
(S_LAYER, S_PARENT, S_OP, S_NAME, S_HOST0, S_HOST1, S_SIM0, S_SIM1,
 S_CHARGED, S_WAITED) = range(10)


class Tracer:
    """Installs the wrappers, collects spans, aggregates them."""

    def __init__(self) -> None:
        self.on = False
        self.op: Optional[int] = None
        self.spans: List[list] = []
        self.names: List[str] = []
        self._stack: List[int] = []
        self._sim_now: Callable[[], float] = lambda: 0.0
        self._restores: List[Callable[[], None]] = []
        self._in_meter = False
        self._batch_mark = 0

    # -- installing and removing -------------------------------------------

    def install(self) -> None:
        if self._restores:
            raise RuntimeError("tracer already installed")
        for layer_index, layer in enumerate(LAYER_NAMES):
            for spec in LAYERS[layer]:
                self._wrap_entry_point(layer_index, spec)
        self._wrap_clocks()

    def remove(self) -> None:
        while self._restores:
            self._restores.pop()()
        self.on = False

    def attach_clock(self, clock) -> None:
        """The stack's timeline: what span start/end read."""
        self._sim_now = clock.now

    def _patch(self, owner, name: str, replacement) -> None:
        had_own = name in vars(owner)
        original = vars(owner).get(name)
        setattr(owner, name, replacement)
        if had_own:
            self._restores.append(lambda: setattr(owner, name, original))
        else:
            self._restores.append(lambda: delattr(owner, name))

    def _wrap_entry_point(self, layer_index: int, spec: str) -> None:
        module_name, _, path = spec.partition(":")
        module = importlib.import_module(module_name)
        self.names.append(f"{module_name.split('.', 1)[1]}.{path}")
        name_index = len(self.names) - 1
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            wrapper = self._make_wrapper(getattr(owner, method),
                                         layer_index, name_index)
            self._patch(owner, method, wrapper)
            return
        original = getattr(module, path)
        wrapper = self._make_wrapper(original, layer_index, name_index)
        # A function imported by name elsewhere is a second binding of the
        # same object: patch every one of them.
        for other_name, other in list(sys.modules.items()):
            if other is not None and other_name.split(".")[0] == "repro" \
                    and vars(other).get(path) is original:
                self._patch(other, path, wrapper)

    def _make_wrapper(self, original, layer_index: int, name_index: int):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.on:
                return original(*args, **kwargs)
            span = [layer_index, stack[-1] if stack else -1, tracer.op,
                    name_index, 0, 0, tracer._sim_now(), 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[S_HOST0] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[S_HOST1] = clock()
                span[S_SIM1] = tracer._sim_now()
                stack.pop()

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", "traced")
        return traced

    def _wrap_clocks(self) -> None:
        from repro.common import clock as clock_module
        tracer = self
        spans = self.spans
        stack = self._stack

        def charge(seconds: float) -> None:
            if stack:       # outside any span: the driver's own idle gaps
                spans[stack[-1]][S_CHARGED] += seconds

        def wrap_advance(owner, nested_meter: bool) -> None:
            original = owner.advance

            def advance(self, seconds):
                # A ShardClock delegates to its WorkerClocks (all of them
                # for a stop-the-world charge): book the charge once.
                if not tracer.on or tracer._in_meter:
                    return original(self, seconds)
                charge(seconds)
                if not nested_meter:
                    return original(self, seconds)
                tracer._in_meter = True
                try:
                    return original(self, seconds)
                finally:
                    tracer._in_meter = False

            self._patch(owner, "advance", advance)

        wrap_advance(clock_module.SimClock, nested_meter=False)
        wrap_advance(clock_module.ShardClock, nested_meter=True)
        wrap_advance(clock_module.WorkerClock, nested_meter=False)

        schedule_at = clock_module.SimClock.schedule_at

        def traced_schedule_at(self, when, callback, label="",
                               daemon=False):
            if tracer.on and stack:
                current = stack[-1]
                span = spans[current]
                if span[S_LAYER] == WIRE_LAYER:
                    span[S_WAITED] += when - self.now()
                elif label == BATCH_REPLY_LABEL:
                    # A worker's batch replies as one: each of its n
                    # commands is held for the whole batch, but only one
                    # batch's worth of service was charged.
                    served = sum(
                        1 for child in spans[tracer._batch_mark:]
                        if child[S_PARENT] == current
                        and child[S_LAYER] == ENGINE_LAYER)
                    span[S_WAITED] += (served - 1) * (when - self.now())
                    tracer._batch_mark = len(spans)
            return schedule_at(self, when, callback, label=label,
                               daemon=daemon)

        self._patch(clock_module.SimClock, "schedule_at", traced_schedule_at)

    # -- aggregating -------------------------------------------------------

    def clear(self) -> None:
        del self.spans[:]
        del self._stack[:]
        self._batch_mark = 0

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, host self ns, simulated charged and waited
        seconds."""
        spans = self.spans
        child_host = [0] * len(spans)
        for span in spans:
            if span[S_PARENT] >= 0:
                child_host[span[S_PARENT]] += span[S_HOST1] - span[S_HOST0]
        totals = {layer: {"calls": 0, "host_self_ns": 0, "sim_charged": 0.0,
                          "sim_waited": 0.0} for layer in LAYER_NAMES}
        for index, span in enumerate(spans):
            row = totals[LAYER_NAMES[span[S_LAYER]]]
            row["calls"] += 1
            row["host_self_ns"] += (span[S_HOST1] - span[S_HOST0]
                                    - child_host[index])
            row["sim_charged"] += span[S_CHARGED]
            row["sim_waited"] += span[S_WAITED]
        return totals

    def root_host_ns(self, layer: str) -> int:
        """Host time under the outermost spans of ``layer`` (children
        included) -- e.g. everything ``ycsb.gen`` costs during set-up."""
        index = LAYER_NAMES.index(layer)
        spans = self.spans
        total = 0
        for span in spans:
            if span[S_LAYER] != index:
                continue
            parent = span[S_PARENT]
            while parent >= 0 and spans[parent][S_LAYER] != index:
                parent = spans[parent][S_PARENT]
            if parent < 0:
                total += span[S_HOST1] - span[S_HOST0]
        return total


def count_python_calls(work: Callable[[], None]) -> int:
    """Exact number of Python-level function calls ``work`` makes."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls
