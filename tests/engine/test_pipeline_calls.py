"""Host-cost pin on the one command pipeline (``StorageEngine.execute``).

A count, not a wall-clock floor: Python function calls under
``sys.setprofile`` (the benchmark's ``host.py_calls_per_op``) repeat
exactly on any host.  Each engine variant runs one SET, GET, PEXPIREAT
and DEL with its log on and read logging switched on, after one warm-up
round (so the relational plan cache is hot).  A change that adds a call
to every command moves every row here; re-pin only with the reason.
"""

import pytest

from repro.common.clock import SimClock
from tests.support import ENGINE_FACTORIES, py_calls

#: variant -> calls per command, including the measuring lambda.  A
#: tiered command runs in one barrier scope of the cold device: three of
#: its calls are ``group()``, ``__enter__`` and ``__exit__``.  One call
#: fewer per command since the everysec fsync moved from the command's
#: tick (``LogWriter.tick``) to the log device's timer.  A tiered SET
#: makes its key's cold copy, if any, a shadow with one call
#: (``ColdSegmentStore.shadow``) where evicting it took two
#: (``_evict_shadow`` and ``tombstone_key``); a tiered DEL's tombstone
#: counts the dead bytes of the copy it kills through one more
#: (``ColdSegmentStore._drop``).
PINNED = {
    "redislike": {"SET": 35, "GET": 28, "PEXPIREAT": 39, "DEL": 33},
    "relational": {"SET": 27, "GET": 24, "PEXPIREAT": 34, "DEL": 31},
    "tiered-redislike": {"SET": 52, "GET": 45, "PEXPIREAT": 58, "DEL": 57},
    "tiered-relational": {"SET": 44, "GET": 41, "PEXPIREAT": 53,
                          "DEL": 53},
}


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_calls_per_command_are_pinned(variant):
    engine = ENGINE_FACTORIES[variant](SimClock())
    engine.aof.log_reads = True
    deadline = b"%d" % ((engine.clock.now() + 100) * 1000)
    script = [(b"SET", b"k", b"v"), (b"GET", b"k"),
              (b"PEXPIREAT", b"k", deadline), (b"DEL", b"k")]
    for argv in script:
        engine.execute(*argv)
    counts = {argv[0].decode(): py_calls(lambda: engine.execute(*argv)).total
              for argv in script}
    assert counts == PINNED[variant]
    assert engine.aof.reads_logged == 2       # both GETs reached the log
