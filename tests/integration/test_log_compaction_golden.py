"""Golden compacted logs: the bytes one ``rewrite_aof`` writes, per engine.

Two small keyspaces, built by commands alone, each pin the sha256 of the
log their engine's compaction leaves behind:

* a key-value store holding all three value types in two databases, with
  deadlines (one off the millisecond grid, so the truncation to whole
  milliseconds is pinned too);
* a relational store holding value rows and wide rows, with deadlines
  and GDPR metadata columns (non-ASCII included).  Wide-row fields are
  inserted in sorted order, the one order in which "fields as stored"
  and "fields sorted" spell the same bytes.

The digests were recorded before the two engines shared one compaction
encoder, so the shared encoder is held to what each engine's own writer
produced.  The key-value digest was re-recorded when the list and set
types were retired, from the encoder as it was before that change.
Both digests were re-recorded when a string record and its deadline
became one ``SET..PXAT`` statement: the new bytes are the old stream
with each string's ``SET`` + ``PEXPIREAT`` pair re-encoded by
``encode_command`` as one ``SET k v PXAT ms``, and nothing else moved.
Replaying the compacted logs is the conformance suite's job
(``tests/engine/test_conformance.py``).
"""

import hashlib

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.sqlstore import RelationalStore, SqlConfig

KV_DIGEST = ("ff95efe3083370cd5029e524b98f6334"
             "f8631e401bf41c251420dfdecf3c39b0")
RELATIONAL_DIGEST = ("5aeaf34a2d7dd72228d4b595a5d60433"
                     "d8b76bab1006a68e664ad22cc6018657")


def _digest(engine):
    engine.rewrite_aof()
    return hashlib.sha256(engine.aof_log.read_all()).hexdigest()


def test_key_value_rewrite_bytes():
    clock = SimClock()
    store = KeyValueStore(StoreConfig(appendonly=True), clock=clock,
                          aof_log=AppendLog(clock=clock))
    clock.advance(0.0004567)
    store.execute("SET", "s", "plain\r\nvalue")
    store.execute("HSET", "h", "zeta", "1", "alpha", "2", "mid", "3")
    store.execute("ZADD", "z", "2.5", "m", "-1", "n", "1e-3", "o")
    store.execute("EXPIRE", "s", 100)
    store.execute("PEXPIREAT", "z", 4_000_000)
    session = store.session()
    store.execute("SELECT", 3, session=session)
    store.execute("SET", "other", "db3", session=session)
    store.execute("HSET", "h3", "f", "v", session=session)
    store.execute("PEXPIRE", "h3", 12_345, session=session)
    store.execute("SET", "gone", "x")
    store.execute("DEL", "gone")
    assert _digest(store) == KV_DIGEST


def test_relational_checkpoint_bytes():
    clock = SimClock()
    store = RelationalStore(SqlConfig(wal_enabled=True), clock=clock,
                            wal_log=AppendLog(clock=clock))
    clock.advance(0.0004567)
    store.execute("SET", "v1", "value one")
    store.execute("SET", "v2", "line\r\nbreak")
    store.execute("HSET", "w1", "a", "1", "b", "2", "c", "3")
    store.execute("HSET", "w2", "field0", "x", "field1", "y")
    store.execute("EXPIRE", "v1", 100)
    store.execute("PEXPIREAT", "w1", 4_000_000)
    store.execute("GDPRMETA", "v1", "alice", "billing,service")
    store.execute("GDPRMETA", "w2", "zoë", "ads")
    store.execute("SET", "gone", "x")
    store.execute("GDPRMETA", "gone", "bob", "service")
    store.execute("DEL", "gone")
    assert _digest(store) == RELATIONAL_DIGEST
