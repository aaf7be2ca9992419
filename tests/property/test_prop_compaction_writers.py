"""The two log-compaction writers against their definition (hypothesis).

``sqlstore.wal.checkpoint`` and ``AofRewriter.dump_commands`` format a
bytes-valued row's ``SET`` / ``PEXPIREAT`` / ``GDPRMETA`` through shared
``bytes %`` templates.  The definition stays the per-statement
:func:`encode_command` concatenation, rebuilt here from the live state;
the compacted stream must equal it byte for byte (so ``log.replace``
charges the same simulated cost and the Art. 17 residual scan reads the
same bytes) and must replay to the same state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.common.resp import encode_command
from repro.device.append_log import AppendLog
from repro.kvstore.aof import AofRewriter
from repro.kvstore.datatypes import ZSet
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.sqlstore import RelationalStore, SqlConfig

# Framing bytes inside keys and values are the point: CRLF, NUL, a whole
# embedded statement, the empty string.
awkward = st.sampled_from([b"", b"\r\n", b"\x00", b"a\r\nb", b"$3\r\nSET\r\n",
                           b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"])
blobs = st.one_of(st.binary(max_size=40), awkward)
hashes = st.dictionaries(blobs, blobs, min_size=1, max_size=4)
# Exact halves of a second, in the future: ``int(t * 1000)`` is exact, so
# the deadline survives the millisecond round trip unchanged.
deadlines = st.none() | st.integers(2, 10 ** 7).map(lambda n: n / 2)
# Non-ASCII owners and purposes travel as UTF-8.
labels = st.text(max_size=12)
owners = st.none() | st.tuples(labels, labels)

sql_rows = st.dictionaries(
    blobs, st.tuples(blobs | hashes, deadlines, owners), max_size=6)


def _relational():
    clock = SimClock()
    return RelationalStore(SqlConfig(wal_enabled=True, seed=0),
                           clock=clock, wal_log=AppendLog(clock=clock))


def _table_state(engine):
    return [(row.key, row.value, row.expire_at, row.owner, row.purposes)
            for row in engine.table.rows()]


def _per_statement_checkpoint(engine):
    """The definition: one ``encode_command`` per statement."""
    chunks = []
    for key, value, expire_at, owner, purposes in _table_state(engine):
        if isinstance(value, bytes):
            chunks.append(encode_command(b"SET", key, value))
        else:
            flat = [part for name in sorted(value)
                    for part in (name, value[name])]
            chunks.append(encode_command(b"HSET", key, *flat))
        if expire_at is not None:
            chunks.append(encode_command(
                b"PEXPIREAT", key, str(int(expire_at * 1000)).encode()))
        if owner is not None:
            chunks.append(encode_command(b"GDPRMETA", key,
                                         owner.encode("utf-8"),
                                         purposes.encode("utf-8")))
    return b"".join(chunks)


@settings(max_examples=150, deadline=None)
@given(sql_rows)
def test_checkpoint_equals_per_statement_encoding_and_replays(rows):
    engine = _relational()
    for key, (value, expire_at, meta) in rows.items():
        if isinstance(value, bytes):
            engine.execute(b"SET", key, value)
        else:
            engine.execute(b"HSET", key,
                           *(part for pair in value.items() for part in pair))
        if expire_at is not None:
            engine.execute(b"PEXPIREAT", key, int(expire_at * 1000))
        if meta is not None:
            engine.execute(b"GDPRMETA", key, *meta)
    state = _table_state(engine)
    assert len(state) == len(rows)

    size = engine.rewrite_aof()
    compacted = engine.aof_log.read_all()
    assert compacted == _per_statement_checkpoint(engine)
    assert size == len(compacted)

    rebuilt = _relational()
    rebuilt.replay_aof(compacted, tolerate_truncated_tail=False)
    assert _table_state(rebuilt) == state


# -- the AOF rewriter, all five value kinds ---------------------------------------

scores = st.floats(allow_nan=False, allow_infinity=False, width=32)
kv_values = st.one_of(
    blobs,
    hashes,
    st.lists(blobs, min_size=1, max_size=4),
    st.sets(blobs, min_size=1, max_size=4),
    st.dictionaries(blobs, scores, min_size=1, max_size=4).map(
        lambda pairs: ("zset", pairs)))
kv_rows = st.dictionaries(blobs, st.tuples(kv_values, deadlines), max_size=6)


def _logged_kv():
    clock = SimClock()
    return KeyValueStore(StoreConfig(appendonly=True, seed=0), clock=clock,
                         aof_log=AppendLog(clock=clock))


def _keyspace_state(store):
    db = store.databases[0]
    values = {key: (list(value.items()) if isinstance(value, ZSet) else value)
              for key, value in db.data.items()}
    return values, dict(db.expires)


def _per_statement_rewrite(store):
    """The definition: one ``encode_command`` per statement."""
    db = store.databases[0]
    chunks = [encode_command(b"SELECT", b"0")] if len(db) else []
    for key in db.keys():
        value = db.get_value(key)
        if isinstance(value, bytes):
            chunks.append(encode_command(b"SET", key, value))
        elif isinstance(value, dict):
            flat = [part for pair in value.items() for part in pair]
            chunks.append(encode_command(b"HSET", key, *flat))
        elif isinstance(value, list):
            chunks.append(encode_command(b"RPUSH", key, *value))
        elif isinstance(value, set):
            chunks.append(encode_command(b"SADD", key, *sorted(value)))
        else:
            flat = [part for member, score in value.items()
                    for part in (repr(score).encode("ascii"), member)]
            chunks.append(encode_command(b"ZADD", key, *flat))
        expire_at = db.get_expiry(key)
        if expire_at is not None:
            chunks.append(encode_command(
                b"PEXPIREAT", key, str(int(expire_at * 1000)).encode()))
    return chunks


@settings(max_examples=150, deadline=None)
@given(kv_rows)
def test_aof_rewrite_equals_per_statement_encoding_and_replays(rows):
    store = _logged_kv()
    for key, (value, expire_at) in rows.items():
        if isinstance(value, bytes):
            store.execute(b"SET", key, value)
        elif isinstance(value, dict):
            store.execute(b"HSET", key,
                          *(part for pair in value.items() for part in pair))
        elif isinstance(value, list):
            store.execute(b"RPUSH", key, *value)
        elif isinstance(value, set):
            store.execute(b"SADD", key, *value)
        else:
            store.execute(b"ZADD", key, *(
                part for member, score in value[1].items()
                for part in (repr(score), member)))
        if expire_at is not None:
            store.execute(b"PEXPIREAT", key, int(expire_at * 1000))
    state = _keyspace_state(store)
    assert len(state[0]) == len(rows)

    chunks = AofRewriter(store).dump_commands()
    assert chunks == _per_statement_rewrite(store)

    rebuilt = _logged_kv()
    rebuilt.replay_aof(b"".join(chunks), tolerate_truncated_tail=False)
    assert _keyspace_state(rebuilt) == state
