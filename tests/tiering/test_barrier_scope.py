"""The cold device's barrier scope on both tiered engines.

Every tiered command runs in one ``cold.device.group()`` scope; the
durable tombstones and subject markers laid inside are committed, and
the outermost exit pays one flush+fsync for them -- unless a seal in the
scope (always fsynced as written, because the hot copies are dropped
right after it) already made them durable.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DeviceIOError
from repro.device.faults import FaultPlan
from tests.support import ENGINE_FACTORIES

TIERED = ["tiered-redislike", "tiered-relational"]
KEYS = ("hot", "cold1", "cold2", "kept")


def _demoted(variant):
    engine = ENGINE_FACTORIES[variant](SimClock())
    for key in KEYS:
        engine.execute("SET", key, f"v-{key}")
    engine.demote_keys([key.encode() for key in KEYS])
    return engine, engine.cold.device


def _gone_after_power_loss(engine, keys, plan=None):
    """Whether ``keys`` stay deleted through power loss on every device
    (``plan`` when one is attached) and a restart."""
    if plan is None:
        plan = FaultPlan(engine.aof_log, engine.cold.device)
    plan.power_loss()
    recovered = engine.reopen()
    return all(recovered.execute("GET", key) is None
               and recovered.cold.slot_of(key.encode()) is None
               for key in keys)


@pytest.mark.parametrize("variant", TIERED)
def test_nested_scopes_pay_one_fsync_at_the_outermost_exit(variant):
    engine, device = _demoted(variant)
    fsyncs = device.fsyncs
    with device.group():
        assert engine.execute("DEL", "cold1") == 1
        with device.group():
            assert engine.execute("DEL", "cold2") == 1
        assert device.fsyncs == fsyncs and device.unsynced_bytes > 0
    assert device.fsyncs == fsyncs + 1 and device.unsynced_bytes == 0
    assert _gone_after_power_loss(engine, ["cold1", "cold2"])


@pytest.mark.parametrize("variant", TIERED)
def test_a_seal_inside_a_scope_satisfies_the_pending_request(variant):
    engine, device = _demoted(variant)
    engine.execute("SET", "fresh", "v")
    fsyncs = device.fsyncs
    with device.group():
        assert engine.execute("DEL", "cold1") == 1
        assert device.fsyncs == fsyncs
        assert engine.demote_keys([b"fresh"]) == 1
        assert device.fsyncs == fsyncs + 1 and device.unsynced_bytes == 0
    assert device.fsyncs == fsyncs + 1
    assert _gone_after_power_loss(engine, ["cold1"])


@pytest.mark.parametrize("variant", TIERED)
def test_a_failed_exit_fsync_leaves_a_clean_keys_tombstone_pending(variant):
    """Promoting ``hot`` writes nothing cold: its copy stays, charged to
    the resident index, as the shadow of a clean key.  Deleting ``hot``
    tombstones that shadow; an fsync that fails at the DEL's exit leaves
    the request pending, and the next command's exit pays one fsync for
    both tombstones."""
    engine, device = _demoted(variant)
    cold = engine.cold
    assert cold.resident_bytes() == 163
    written = device.total_length
    assert engine.execute("GET", "hot") == b"v-hot"
    assert device.total_length == written
    assert cold.resident_bytes() == 163
    plan = FaultPlan(engine.aof_log, device)
    plan.fail("fsync")
    with pytest.raises(DeviceIOError):
        engine.execute("DEL", "hot")
    assert cold.resident_bytes() == 163 - (3 + 24)
    assert device.fsyncs == 1 and device.unsynced_bytes > 0
    tombstones = cold.tombstones
    assert engine.execute("DEL", "cold1") == 1
    assert cold.tombstones == tombstones + 1
    assert cold.resident_bytes() == 136 - (5 + 24)
    assert device.fsyncs == 2 and device.unsynced_bytes == 0
    assert _gone_after_power_loss(engine, ["hot", "cold1"], plan)
