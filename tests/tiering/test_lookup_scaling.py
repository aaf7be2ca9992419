"""Host-cost scaling of the cold-tier point path, counted exactly.

Two deterministic, host-independent counts per command: SHA-256
computations made on behalf of the segment filters, and Python-level
calls (``sys.setprofile``).  Up to segment format v1 a point command
hashed its key once and probed one key bloom per sealed segment; since
v2 membership is one lookup in the resident directory, so both counts
were restated downward: no filter hash at all (the subject blooms are
consulted by rights requests only), and a miss that costs the same
whatever the archive's size.
"""

import pytest

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.tiering import TieredEngine, TieringConfig, bloom
from tests.support import py_calls

PER_SEGMENT = 4


def _engine_with_segments(segments):
    """``segments`` sealed segments of cold keys plus one hot key."""
    clock = SimClock()
    inner = KeyValueStore(StoreConfig(appendonly=True), clock=clock,
                          aof_log=AppendLog(clock=clock))
    engine = TieredEngine(inner, tiering=TieringConfig(
        auto_demote=False, segment_max_records=PER_SEGMENT))
    cold = [b"cold:%03d" % i for i in range(segments * PER_SEGMENT)]
    for key in cold:
        engine.execute("SET", key, b"v")
    assert engine.demote_keys(cold) == len(cold)
    assert engine.cold.segment_count == segments
    engine.execute("SET", b"hot", b"v")
    return engine


@pytest.fixture
def filter_hashes(monkeypatch):
    """Counts every SHA-256 the bloom module computes."""
    calls = []
    real = bloom.sha256_bytes

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(bloom, "sha256_bytes", counting)
    return calls


@pytest.mark.parametrize("segments", [4, 40])
@pytest.mark.parametrize("command,key", [
    pytest.param(("GET",), b"hot", id="get-hot-hit"),
    pytest.param(("GET",), b"cold:001", id="get-cold-hit-promotes"),
    pytest.param(("GET",), b"absent", id="get-total-miss"),
    pytest.param(("SET", b"w"), b"hot", id="set-hot"),
    pytest.param(("SET", b"w"), b"cold:002", id="set-over-cold-copy"),
    pytest.param(("SET", b"w"), b"absent", id="set-new"),
    pytest.param(("SET", b"w", b"NX"), b"cold:003", id="set-nx-cold"),
    pytest.param(("DEL",), b"hot", id="del-hot"),
    pytest.param(("DEL",), b"cold:005", id="del-cold"),
])
def test_one_filter_hash_per_key_per_command(filter_hashes, segments,
                                             command, key):
    engine = _engine_with_segments(segments)
    del filter_hashes[:]
    engine.execute(command[0], key, *command[1:])
    assert filter_hashes == []          # was [key]: at most one, now none


def test_total_miss_cost_grows_by_one_probe_per_segment():
    counts = {}
    for segments in (4, 40):
        engine = _engine_with_segments(segments)
        counts[segments] = py_calls(
            lambda: engine.execute("GET", b"absent")).total
    # Ten times the segments, not one call more (was: one probe per
    # segment on top of the command's fixed cost).
    assert counts[40] == counts[4]
