"""Crash points on the tiered store's write paths.

A promotion is a clean cache fill that writes nothing, and a cold copy
shadowed by a hot one dies only by a durable tombstone or a newer seal.
So power lost before any device step of a tier operation -- followed
by a durable cold commit for another key, whose fsync covers whatever
the operation left on the cold device -- recovers every key to its
state before the operation or after it, and never brings a deleted key
back.  Each case runs on both inner engines over an ``everysec`` log
(the hot log loses its last second; the cold commit does not) and an
``always`` one (every hot record is durable as written, so a logged
delta without its base would show).
"""

import functools

import pytest

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.kvstore import KeyValueStore, StoreConfig
from repro.kvstore.commands import deadline_ms
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieredEngine, TieringConfig
from tests.support import crashpoints, pre_or_post, restarts_agree

KEYS = (b"a", b"b", b"gone")


def _engine(base, fsync):
    clock = SimClock()
    if base == "redislike":
        inner = KeyValueStore(StoreConfig(appendonly=True,
                                          appendfsync=fsync),
                              clock=clock, aof_log=AppendLog(clock=clock))
    else:
        inner = RelationalStore(SqlConfig(wal_fsync=fsync), clock=clock,
                                wal_log=AppendLog(clock=clock))
    return TieredEngine(inner, tiering=TieringConfig(auto_demote=False))


def _state(engine):
    """key -> (value, deadline in ms) of every key the store serves."""
    return {record.key: (record.value, None if record.expire_at is None
                         else deadline_ms(record.expire_at))
            for record in engine.scan_records()}


def _promote(engine):
    assert engine.execute("GET", "a") == b"v-a"


#: name -> (whether the relational engine runs it, the steps before the
#: crash window, the operation).  Every case starts from ``a``, ``b``
#: and ``gone`` demoted and ``gone`` then deleted, both logs durable.
CASES = {
    "promoting GET": (True, None, _promote),
    "SET over a demoted key": (
        True, None, lambda engine: engine.execute("SET", "a", "v2")),
    "APPEND on a clean key": (
        False, _promote, lambda engine: engine.execute("APPEND", "a", "+")),
    "EXPIRE on a clean key": (
        True, _promote, lambda engine: engine.execute("EXPIRE", "a", 100)),
    "re-demotion of a clean key": (
        True, _promote, lambda engine: engine.demote_keys([b"a"])),
    "DEL of a clean key": (
        True, _promote, lambda engine: engine.execute("DEL", "a")),
}


def _prepared(base, fsync, before):
    engine = _engine(base, fsync)
    for key in KEYS:
        engine.execute("SET", key, b"v-" + key)
    engine.demote_keys(list(KEYS))
    assert engine.execute("DEL", "gone") == 1
    engine.aof_log.flush_and_fsync()
    if before is not None:
        before(engine)
    return engine


def _logs(engine):
    return [engine.aof_log, engine.cold.device]


def _then_cold_commit(operation):
    """``operation``, then a durable cold commit for ``b``."""
    def run(engine):
        operation(engine)
        assert engine.execute("DEL", "b") == 1
    return run


@pytest.mark.parametrize("fsync", ["everysec", "always"])
@pytest.mark.parametrize("base", ["redislike", "relational"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_power_loss_before_any_step_recovers_pre_or_post_state(
        case, base, fsync):
    relational, before, operation = CASES[case]
    if base == "relational" and not relational:
        pytest.skip("the relational engine has no APPEND")
    build = functools.partial(_prepared, base, fsync, before)
    run = _then_cold_commit(operation)
    pre, ran = _state(build()), build()
    run(ran)
    post = _state(ran)
    points = list(crashpoints(build, run, _logs))
    assert len(points) > 1
    for point in points:
        recovered = restarts_agree(point, _state)
        assert b"gone" not in recovered, point.lost
        pre_or_post(recovered, pre, post)


def _set_for_a_second(engine):
    engine.execute("SET", "a", "v2", "PXAT",
                   deadline_ms(engine.clock.now()) + 1000)


#: name -> (steps before the crash window, the operation): each gives
#: ``a`` a deadline a second away.
DEADLINE_CASES = {
    "EXPIRE on a clean key": (
        _promote, lambda engine: engine.execute("EXPIRE", "a", 1)),
    "SET..PXAT over a demoted key": (None, _set_for_a_second),
}


def _two_seconds_later(engine):
    engine.clock.advance(2)
    return engine.reopen()


@pytest.mark.parametrize("fsync", ["everysec", "always"])
@pytest.mark.parametrize("base", ["redislike", "relational"])
@pytest.mark.parametrize("case", sorted(DEADLINE_CASES))
def test_a_deadline_passed_before_the_restart_keeps_the_key_dead(
        case, base, fsync):
    """Power lost before any step -- or after a clean stop that made
    both logs durable -- and ``a``'s new deadline passes before the
    restart, with no expiry run to reclaim it.  ``a`` recovers its
    pre-state or stays dead, never as its older archived copy, and a
    second restart after power loss agrees with the first."""
    before, operation = DEADLINE_CASES[case]

    build = functools.partial(_prepared, base, fsync, before)
    run = _then_cold_commit(operation)

    def stopped(engine):
        run(engine)
        engine.aof_log.flush_and_fsync()

    pre = _state(build())
    for point in crashpoints(build, stopped, _logs, _two_seconds_later):
        state = restarts_agree(point, _state)
        pre_or_post(state, pre, {})
        if point.lost is None:
            assert state == {}
            assert point.recovered.execute("GET", "a") is None
