"""The hot log partitioned by key: parts, fragments, the manifest.

A log stays its device's one file until the first rewrite that names
keys (Art. 17's); that rewrite splits it into parts of at most
``PART_BYTES``, each owning a range of hash slots.  From then on every
record reaches the part owning its keys, and a rewrite naming keys
rewrites only their parts.
"""

import pytest

from repro.cluster.slots import slot_for_key
from repro.common.clock import SimClock
from repro.common.resp import encode_command
from repro.device.append_log import AppendLog
from repro.kvstore import KeyValueStore, StoreConfig
from repro.kvstore.aof import PART_BYTES, AofWriter, replay_commands
from repro.sqlstore import RelationalStore, SqlConfig

VALUE = b"v" * 100


def _store(records=2000, **config):
    clock = SimClock()
    store = KeyValueStore(StoreConfig(appendonly=True, **config),
                          clock=clock, aof_log=AppendLog(clock=clock))
    for i in range(records):
        store.execute("SET", f"user{i}", VALUE)
    return store


def _split(store):
    """Split the log with a rewrite naming one key."""
    store.rewrite_aof([b"user0"])
    assert store.aof.split
    return store.aof._parts


def _part_of(store, key):
    slot = slot_for_key(key)
    return [part for part in store.aof._parts if part.first <= slot][-1]


def _replayed(store, data=None):
    fresh = KeyValueStore(StoreConfig(), clock=SimClock())
    fresh.replay_aof(store.aof.read_all() if data is None else data,
                     tolerate_truncated_tail=False)
    return fresh


def _keyspace(store):
    return {index: sorted((key, value, expire_at)
                          for key, value, expire_at, _ in records)
            for index, records in store.snapshot_records().items()}


def test_a_log_never_rewritten_by_key_stays_one_file():
    store = _store()
    store.rewrite_aof()                       # BGREWRITEAOF: one file
    store.execute("DEL", "user1")
    assert store.aof_log.files() == ["appendonly.aof"]
    assert not store.aof.split
    assert store.aof.read_all() == store.aof_log.read_all()


def test_the_first_rewrite_by_key_splits_the_log_by_slot():
    store = _store()
    parts = _split(store)
    assert len(parts) > 2
    firsts = [part.first for part in parts]
    assert firsts[0] == 0 and firsts == sorted(firsts)
    for part in parts:
        data = store.aof_log.read_all(part.file)
        assert 0 < len(data) <= PART_BYTES + 32     # + one SELECT 0
        for args in replay_commands(data):
            if args[0] != b"SELECT":
                assert _part_of(store, args[1]) is part
    assert _keyspace(_replayed(store)) == _keyspace(store)


def test_every_record_of_a_key_reaches_the_part_owning_it():
    store = _store()
    _split(store)
    store.execute("SET", "user7", "new")
    store.execute("GET", "user7")
    store.execute("PEXPIRE", "user7", 100_000)
    store.execute("HSET", "row", "f", "x")
    store.execute("DEL", "user7")
    for key in (b"user7", b"row"):
        owner = _part_of(store, key)
        for part in store.aof._parts:
            mentioned = b"\r\n" + key + b"\r\n" in store.aof_log.read_all(
                part.file)
            assert mentioned == (part is owner), (key, part.file)
    assert _keyspace(_replayed(store)) == _keyspace(store)


def test_a_multi_key_record_is_one_fragment_per_part_and_one_charge():
    store = _store(aof_record_base_cost=1e-3)
    _split(store)
    keys = [b"user1", b"user2", b"user3", b"user4", b"user5"]
    owners = {_part_of(store, key).file for key in keys}
    assert len(owners) > 1
    before = (store.aof.records_written, store.clock.now(),
              {file: store.aof_log.read_all(file) for file in owners})
    store.execute("DEL", *keys)
    assert store.aof.records_written == before[0] + 1
    assert store.clock.now() - before[1] == pytest.approx(1e-3)
    for file in owners:
        added = replay_commands(
            store.aof_log.read_all(file)[len(before[2][file]):])
        assert added == [[b"DEL"] + [key for key in keys
                                     if _part_of(store, key).file == file]]


def test_a_rewrite_by_key_rewrites_only_the_owning_parts():
    store = _store()
    _split(store)
    untouched = {part.file: store.aof_log.read_all(part.file)
                 for part in store.aof._parts}
    keys = [b"user11", b"user12", b"user13", b"user14"]
    owners = {_part_of(store, key).file for key in keys}
    store.execute("DEL", *keys)
    fsyncs, parts, rewritten = (store.aof_log.fsyncs,
                                store.aof.parts_rewritten,
                                store.aof.bytes_rewritten)
    written = store.rewrite_aof(keys)
    assert store.aof_log.fsyncs == fsyncs + 1
    assert store.aof.parts_rewritten - parts >= len(owners)
    assert store.aof.bytes_rewritten - rewritten == written
    assert 0 < written <= len(owners) * PART_BYTES
    assert not store.aof.mentioned_keys(keys)
    for file, data in untouched.items():
        if file in owners:
            assert file not in store.aof_log.files()
        else:
            assert store.aof_log.read_all(file) == data
    assert _keyspace(_replayed(store)) == _keyspace(store)


def test_a_growing_part_splits_again_when_rewritten():
    store = _store()
    _split(store)
    part = _part_of(store, b"user1")
    slot = slot_for_key(b"user1")
    for i in range(400):                      # fill user1's slot range
        key = f"user1-{i}".encode()
        if _part_of(store, key) is part:
            store.execute("SET", key, VALUE)
    count = len(store.aof._parts)
    store.rewrite_aof([b"user1"])
    assert len(store.aof._parts) > count
    assert _part_of(store, b"user1").first <= slot
    assert _keyspace(_replayed(store)) == _keyspace(store)


def test_a_full_rewrite_of_a_split_log_lays_it_out_afresh():
    store = _store()
    _split(store)
    for i in range(1500):
        store.execute("DEL", f"user{i}")
    store.rewrite_aof()
    assert store.aof.split                  # 500 records: still > 32 KiB
    count = len(store.aof._parts)
    for i in range(1500, 2000):
        store.execute("DEL", f"user{i}")
    store.rewrite_aof()
    assert count > 1 and len(store.aof._parts) == 1
    assert store.aof_log.files() == [store.aof._parts[0].file,
                                     "appendonly.aof.manifest"]
    assert store.aof.read_all() == b""


def test_read_all_restarts_each_part_in_database_zero():
    store = _store()
    _split(store)
    session = store.session()
    store.execute("SELECT", 3, session=session)
    for i in range(50):
        store.execute("SET", f"db3-{i}", "x", session=session)
    store.execute("SET", "user5", "db0")
    replayed = _replayed(store)
    assert _keyspace(replayed) == _keyspace(store)
    assert replayed.execute("GET", "user5") == b"db0"


def test_flushall_between_writes_to_two_parts_replays_as_before():
    """Replay applies one part after another, so a keyless FLUSHALL is
    logged as the rewrite of the keyspace it left: recovery agrees with
    replaying the commands in the order they ran."""
    store = _store()
    _split(store)
    first, second = b"user1", b"user2"
    while _part_of(store, second) is _part_of(store, first):
        second += b"x"
    store.execute("SET", second, "before")
    store.execute("SET", first, "before")
    store.execute("FLUSHALL")
    store.execute("SET", second, "after")
    store.aof_log.flush_and_fsync()
    replayed = _replayed(store, store.aof.read_durable())
    assert _keyspace(replayed) == {0: [(second, b"after", None)]}
    assert _keyspace(replayed) == _keyspace(store)


def test_a_flush_on_a_one_file_log_is_one_record():
    store = _store(records=10)
    fsyncs, rewrites = store.aof_log.fsyncs, store.rewrites_completed
    tail = len(store.aof.read_all())
    store.execute("FLUSHALL")
    assert replay_commands(store.aof.read_all()[tail:]) == [[b"FLUSHALL"]]
    assert store.aof_log.fsyncs == fsyncs
    assert store.rewrites_completed == rewrites
    assert not store.aof.split


def test_unsynced_bytes_count_every_part():
    store = _store()
    parts = _split(store)
    assert store.aof.unsynced_bytes() == 0
    far = b"user1"
    while _part_of(store, far) is parts[0]:
        far += b"x"
    store.execute("SET", "user1", VALUE)
    store.execute("SET", far, VALUE)
    added = len(encode_command(b"SET", b"user1", VALUE)) \
        + len(encode_command(b"SET", far, VALUE))
    assert store.aof.unsynced_bytes() == added
    store.aof_log.flush_and_fsync()
    assert store.aof.unsynced_bytes() == 0


def test_flushdb_keeps_the_other_databases_and_their_parts():
    store = _store()
    _split(store)
    session = store.session()
    store.execute("SELECT", 2, session=session)
    store.execute("SET", "elsewhere", "x", session=session)
    store.execute("FLUSHDB", session=session)
    assert store.aof.split
    assert _keyspace(_replayed(store)) == _keyspace(store)
    assert not store.aof.mentioned_keys([b"elsewhere"])


def test_a_writer_opened_on_a_split_device_reads_its_manifest():
    store = _store()
    _split(store)
    log = store.aof_log
    log.open("appendonly.aof.999")            # a crashed rewrite's leftover
    log.append(b"*2\r\n$3\r\nDEL\r\n$5\r\nuser9\r\n")
    log.flush_and_fsync()
    reopened = AofWriter(log, store.clock, store.aof.policy)
    assert "appendonly.aof.999" not in log.files()
    assert [(part.first, part.file, part.keys)
            for part in reopened._parts] == [
        (part.first, part.file, part.keys) for part in store.aof._parts]
    assert reopened.read_durable() == store.aof.read_durable()


def test_the_relational_log_splits_the_same_way():
    clock = SimClock()
    store = RelationalStore(SqlConfig(wal_enabled=True), clock=clock,
                            wal_log=AppendLog(clock=clock, name="records.wal"))
    for i in range(600):
        store.execute("SET", f"user{i}", VALUE)
        store.execute("GDPRMETA", f"user{i}", f"subject-{i // 4}", "service")
    store.execute("GDPRMETA", *[arg for i in range(40)
                                for arg in (f"user{i}", "other", "ads")])
    store.rewrite_aof([b"user0"])
    assert len(store.aof._parts) > 2
    store.execute("DEL", "user1", "user2")
    store.rewrite_aof([b"user1", b"user2"])
    replica = store.spawn_replica()
    replica.replay_aof(store.aof.read_all(), tolerate_truncated_tail=False)
    assert sorted(replica.snapshot_records()[0]) \
        == sorted(store.snapshot_records()[0])


def _argument_hashes(aof):
    """Per part, in slot order: the hash of every argument its records
    carry -- what the part's index must hold."""
    return [{hash(arg) for args in replay_commands(data) for arg in args[1:]}
            for data in aof.log.read_files(aof.part_files())]


@pytest.mark.parametrize("engine", ["redislike", "relational"])
def test_each_part_indexes_every_argument_its_records_carry(engine):
    """A split log's residual check asks each part's index (the hash of
    every argument of its records) instead of reading the part; the
    index is exact through a split, appends, a targeted rewrite that
    lays records out again, and a writer reopened over the device."""
    if engine == "redislike":
        store = _store()
        store.execute("SET", "ttl", "v", "PXAT", 10 ** 9)
        store.execute("HSET", "row", "field", "user3")
        store.execute("PEXPIREAT", "row", 10 ** 9)
        store.execute("ZADD", "board", 1.5, "user4")
        store.execute("SET", "user5", "in-db-1", session=store.session(1))
    else:
        clock = SimClock()
        store = RelationalStore(SqlConfig(wal_enabled=True), clock=clock,
                                wal_log=AppendLog(clock=clock))
        for i in range(600):
            store.execute("SET", f"user{i}", VALUE, "PXAT", 10 ** 9)
            store.execute("GDPRMETA", f"user{i}", f"subject-{i // 4}",
                          "service")
    _split(store)
    aof = store.aof
    assert [part.hashes for part in aof._parts] == _argument_hashes(aof)
    store.execute("SET", "user6", "user7", "PXAT", 10 ** 9)
    store.execute("DEL", "user1", "user2", "user3")
    if engine == "relational":
        store.execute("GDPRMETA", "user8", "owner", "ads")
    else:
        store.execute("HSET", "user8:h", "owner", "ads")
        store.execute("SET", "user9", "x", session=store.session(2))
    assert [part.hashes for part in aof._parts] == _argument_hashes(aof)
    store.rewrite_aof([b"user6", b"user8", b"user8:h"])
    assert [part.hashes for part in aof._parts] == _argument_hashes(aof)
    reopened = AofWriter(store.aof_log, store.clock, aof.policy)
    assert [part.hashes for part in reopened._parts] \
        == _argument_hashes(aof)
