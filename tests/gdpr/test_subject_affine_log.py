"""Subject-affine log parts: one key, one part; one erasure, one part.

A key's home is its owner's hash slot when the GDPR layer named the
owner before the key's first record, so a subject's keys share the one
part owning that slot, and an Art. 17 erasure rewrites that part alone.
Homes are sticky: a later owner, the erasure's own ``DEL`` (whose keys
the GDPR index has already forgotten) and a restart all keep a key in
the part that holds its history.
"""

import random
from collections import Counter

import pytest

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.device.latency import INTEL_750_SSD
from repro.gdpr.audit import AuditDurability
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import right_to_erasure
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.aof import PART_BYTES, replay_commands
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieredEngine
from tests.support import ENGINE_FACTORIES, parts_of

KEYS = 120
OWNERS = 30
VALUE = b"p" * 512
SERVICE = frozenset({"service"})


def _gdpr(engine):
    """A compacting, unencrypted GDPR store over ``engine``, its reads
    logged (so reads are records of the key too)."""
    engine.aof.log_reads = True
    return GDPRStore(kv=engine, config=GDPRConfig(encrypt_at_rest=False,
                                                  compact_on_erasure=True))


def _put(store, index, owner):
    store.put(f"user{index}", VALUE,
              GDPRMetadata(owner=f"subject-{owner}", purposes=SERVICE),
              purpose="service")


def _hot(engine):
    return engine.inner if isinstance(engine, TieredEngine) else engine


def _parts_mentioning(engine):
    """argument -> how many files of the log have a record naming it."""
    log = engine.aof.log
    counts = Counter()
    for name in engine.aof.part_files():
        counts.update({arg for args in replay_commands(log.read_all(name))
                       for arg in args[1:]})
    return counts


@pytest.mark.parametrize("variant", sorted(ENGINE_FACTORIES))
def test_every_key_lives_in_exactly_one_part(variant):
    """Seeded puts, logged reads, multi-key DELs, owner changes,
    erasures, idle time (which demotes, behind the tiering wrapper) and
    restarts: after every step, no key is mentioned by two parts, and
    every key the hot engine holds is mentioned by exactly one."""
    rng = random.Random(43)
    clock = SimClock()
    store = _gdpr(ENGINE_FACTORIES[variant](clock))
    names = [f"user{i}".encode() for i in range(KEYS)]
    owner = {}
    for i in range(KEYS):
        owner[i] = i % OWNERS
        _put(store, i, owner[i])
    steps = Counter()
    for _ in range(200):
        roll = rng.random()
        live = sorted(i for i in owner if store.index.get_metadata(
            f"user{i}") is not None)
        if roll < 0.40:
            i = rng.randrange(KEYS)
            owner.setdefault(i, rng.randrange(OWNERS))
            _put(store, i, owner[i])
            step = "put"
        elif roll < 0.50 and live:
            # The owner changes; the key's records stay in its part.
            i = rng.choice(live)
            owner[i] = (owner[i] + 1 + rng.randrange(OWNERS - 1)) % OWNERS
            _put(store, i, owner[i])
            step = "owner-change"
        elif roll < 0.65 and live:
            store.get(f"user{rng.choice(live)}", purpose="service")
            step = "read"
        elif roll < 0.72:
            store.kv.execute("DEL", *[f"user{rng.randrange(KEYS)}"
                                      for _ in range(3)])
            step = "multi-del"
        elif roll < 0.84 and live:
            subject = f"subject-{owner[rng.choice(live)]}"
            receipt = right_to_erasure(store, subject)
            assert not receipt.residual_in_aof
            for key in receipt.keys_erased:
                owner.pop(int(key[4:]), None)
            step = "erasure"
        elif roll < 0.94:
            clock.advance(3.0)
            store.kv.execute("PING")
            step = "idle"
        else:
            store.flush_compliance()
            store.kv.aof.log.flush_and_fsync()
            store = store.reopen()
            store.kv.aof.log_reads = True
            step = "restart"
        steps[step] += 1
        counts = _parts_mentioning(store.kv)
        hot = _hot(store.kv)
        for name in names:
            assert counts[name] <= 1, (variant, step, name)
            if hot.has_live_key(name):
                assert counts[name] == 1, (variant, step, name)
        # The homes are bounded by the keys the log holds.
        assert all(counts[name] for name in store.kv.aof._homes), step
    assert store.kv.aof.split
    assert len(steps) == 7, steps


# -- one erasure, one part --------------------------------------------------

SIZES = (1000, 4000, 16000)
KEYS_PER_SUBJECT = 4


def _ssd_store(records):
    """A relational fast-GDPR store on an SSD-latency WAL: 100-byte
    values, four keys per subject, the first erasure already done (it
    splits the WAL)."""
    clock = SimClock()
    engine = RelationalStore(
        SqlConfig(wal_enabled=True, wal_fsync="everysec",
                  wal_log_reads=True, seed=0),
        clock=clock, wal_log=AppendLog(clock=clock, latency=INTEL_750_SSD))
    store = GDPRStore(
        kv=engine,
        config=GDPRConfig(encrypt_at_rest=False, fast_gdpr=True,
                          audit_durability=AuditDurability.BATCH,
                          compact_on_erasure=True))
    for i in range(records):
        store.put(f"user{i}", b"p" * 100,
                  GDPRMetadata(owner=f"subject-{i // KEYS_PER_SUBJECT}",
                               purposes=SERVICE),
                  purpose="service")
    store.flush_compliance()
    right_to_erasure(store, "subject-0")
    assert engine.aof.split
    return store


@pytest.mark.parametrize("records", SIZES)
def test_a_four_key_erasure_retires_one_part(records):
    """At every store size, each 4-key erasure retires exactly one part,
    writes at most two parts' worth (the part, which may split) and
    pays one fsync (placed by their own slots, the four keys took up to
    four parts)."""
    store = _ssd_store(records)
    wal, device = store.kv.aof, store.kv.aof_log
    for step in range(1, 6):
        subject = f"subject-{step * 97 % (records // KEYS_PER_SUBJECT)}"
        before = parts_of(wal)
        written, fsyncs = wal.bytes_rewritten, device.fsyncs
        rewrites = store.kv.rewrites_completed
        receipt = right_to_erasure(store, subject)
        assert len(receipt.keys_erased) == KEYS_PER_SUBJECT
        assert receipt.log_compacted and not receipt.residual_in_aof
        assert len(before - parts_of(wal)) == 1, subject
        assert store.kv.rewrites_completed == rewrites + 1
        assert wal.bytes_rewritten - written <= 2 * PART_BYTES
        assert device.fsyncs - fsyncs == 1


@pytest.mark.parametrize("variant", ["tiered-redislike", "tiered-relational"])
def test_a_tiered_erasure_files_its_cold_keys_with_the_subject(variant):
    """Keys demoted to the cold tier lose their hot history (and their
    home) at their part's next rewrite; the erasure's ``DEL`` still
    names them, and the tiering wrapper names their owner first, so the
    ``DEL`` and the erasure's rewrite stay in the subject's one part."""
    store = GDPRStore(kv=ENGINE_FACTORIES[variant](SimClock()),
                      config=GDPRConfig(encrypt_at_rest=False,
                                        compact_on_erasure=True))
    for i in range(1000):
        store.put(f"user{i}", b"p" * 200,
                  GDPRMetadata(owner=f"subject-{i // KEYS_PER_SUBJECT}",
                               purposes=SERVICE),
                  purpose="service")
    right_to_erasure(store, "subject-0")                 # splits the log
    engine, wal = store.kv, store.kv.aof
    keys = [key.encode() for key in store.keys_of_subject("subject-7")]
    assert engine.demote_keys(keys[1:]) == 3
    engine.rewrite_aof(keys)               # drops the demoted keys' history
    assert not set(keys[1:]) & set(wal._homes)
    before = parts_of(wal)
    receipt = right_to_erasure(store, "subject-7")
    assert receipt.cold_segments_voided >= 1
    assert receipt.log_compacted and not receipt.residual_in_aof
    assert len(before - parts_of(wal)) == 1
