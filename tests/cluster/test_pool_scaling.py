"""Host cost of the worker pool must follow the work, not the head count.

A shard serving one busy connection does the same work whether 2 or 64
other clients are connected and idle.  Counted, not timed, so the test
is exact and machine-independent: ``BufferedTransport.flush`` invocations
and the Python calls the scheduler makes per command.  Before the pool
tracked which connections have an undispatched head and which hold
buffered replies, every dispatch and every completion walked all
connections (flushes grew ~30x from 2 to 64 idle neighbours).
"""

from repro.cluster import build_cluster
from repro.kvstore import KeyValueStore, StoreConfig
from repro.kvstore.server import BufferedTransport
from tests.support import py_calls

COMMANDS = 200


def _factory(index, clock):
    return KeyValueStore(StoreConfig(command_cpu_cost=25e-6, seed=index),
                         clock=clock)


def _serve(idle_connections: int):
    """(flushes, Python calls) per command for ``COMMANDS`` commands on
    one connection beside ``idle_connections`` connected-but-silent ones."""
    node = build_cluster(1, store_factory=_factory, workers=2,
                         adaptive_batch=True).nodes[0]
    idle = [node.connect() for _ in range(idle_connections)]
    active = node.connect()
    # One long pipeline: dispatch, adaptive batching and completion all
    # run with a queue behind them, across both cores.
    for index in range(COMMANDS):
        active.send_command("SET", f"key{index}", index)
    calls, watched, _ = py_calls(node.scheduler.run_until_idle,
                                 [BufferedTransport.flush])
    flushes = watched[BufferedTransport.flush]
    assert list(active.replies) == ["OK"] * COMMANDS
    assert all(not conn.replies for conn in idle)
    return flushes / COMMANDS, calls / COMMANDS


def test_idle_connections_cost_nothing_per_command():
    few_flushes, few_calls = _serve(2)
    many_flushes, many_calls = _serve(64)
    assert many_flushes < 1.25 * few_flushes
    assert many_calls < 1.25 * few_calls
    # And in absolute terms: at most one flush per command served.
    assert many_flushes <= 1.0
