"""Count guard for the compliant record path: a record's compliance state
is serialised once, not once per operation.

Counts, not wall-clock floors: calls of named functions under
``sys.setprofile`` (the ``tests/gdpr/test_erasure_scaling.py`` recipe)
repeat exactly on any host.  Before PR 20 every ``put`` ran
``GDPRMetadata.to_dict`` + a JSON encode to rebuild the header its frozen
metadata already determined, every ``get`` ran ``json.loads`` +
``from_dict`` to rebuild the object the sidecar index already held, every
audit record went through the sort-keys encoder twice, and every
overwrite removed the key from each inverted index to re-add it
unchanged (``strict_kv``, seed 42: 76 625 / 22 000 / 22 000 / 10 875 /
10 875 calls per run).
"""

import json
from dataclasses import replace

import pytest

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.gdpr.audit import AuditDurability
from repro.gdpr.indexing import MetadataIndex
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.sqlstore import RelationalStore, SqlConfig
from tests.support import py_calls

WATCHED = {
    "iterencode": json.JSONEncoder.iterencode,
    "raw_decode": json.JSONDecoder.raw_decode,
    "from_dict": GDPRMetadata.from_dict.__func__,
    "to_dict": GDPRMetadata.to_dict,
    "remove": MetadataIndex.remove,
}
NOTHING = dict.fromkeys(WATCHED, 0)


def _watched_calls(work):
    """How often each watched function was entered while ``work`` ran."""
    _, watched, result = py_calls(work, WATCHED.values())
    return {name: watched[fn] for name, fn in WATCHED.items()}, result


def _strict_redislike():
    return GDPRStore()      # AOF + read logging, SYNC audit, sealed envelopes


def _fast_relational():
    clock = SimClock()
    engine = RelationalStore(
        SqlConfig(wal_enabled=True, wal_fsync="everysec",
                  wal_log_reads=True, seed=0),
        clock=clock, wal_log=AppendLog(clock=clock))
    return GDPRStore(kv=engine, config=GDPRConfig(
        encrypt_at_rest=True, fast_gdpr=True,
        audit_durability=AuditDurability.BATCH))


@pytest.fixture(params=[_strict_redislike, _fast_relational],
                ids=["strict-redislike", "fast-relational"])
def store(request):
    store = request.param()
    store.clock.advance(1.0)        # created_at is stamped from a moving clock
    for i in range(8):
        store.put(f"user{i}", b"personal-data" * 8,
                  GDPRMetadata(owner=f"subject-{i}", ttl=3600.0,
                               purposes=frozenset({"service"})),
                  purpose="service")
    store.flush_compliance()
    return store


def test_first_put_under_fresh_metadata_serialises_its_header_once(store):
    """The one encode left on the path -- which also shows the counter
    sees what the zero-call tests below say is absent."""
    counts, _ = _watched_calls(lambda: store.put(
        "fresh", b"v", GDPRMetadata(owner="subject-new",
                                    purposes=frozenset({"service"})),
        purpose="service"))
    assert counts["to_dict"] == counts["iterencode"] == 1, counts


def test_steady_state_get_and_restore_serialise_nothing(store):
    """A read of an indexed record, then a write that re-stores it under
    its indexed metadata (the YCSB update): no JSON encode or decode, no
    metadata rebuilt, nothing re-indexed -- and one audit record each."""
    for key in ("user3", "user5", "user3"):
        before = store.audit.record_count
        indexed = store.index.get_metadata(key)
        counts, record = _watched_calls(
            lambda: store.get(key, purpose="service"))
        assert counts == NOTHING, counts
        assert record.metadata is indexed
        counts, _ = _watched_calls(lambda: store.put(
            key, record.value + b"+", record.metadata, purpose="service"))
        assert counts == NOTHING, counts
        assert store.audit.record_count == before + 2
        assert store.index.get_metadata(key) is indexed
        assert store.get(key, purpose="service").value == record.value + b"+"
    store.flush_compliance()
    assert store.audit.verify_durable() == store.audit.record_count


def test_stored_header_that_differs_from_the_index_is_parsed_and_wins(store):
    """The sidecar index is a hint, the sealed header the authority: swap
    the index entry for a copy with one more purpose and the read parses
    the stored header (exactly once) and returns *its* metadata.  The
    copy's own header is derived for the first compare and never again."""
    stored = store.index.get_metadata("user2")
    drifted = replace(stored, purposes=stored.purposes | {"ads"})
    store.index.add("user2", drifted)
    for derived in (1, 0):
        counts, record = _watched_calls(
            lambda: store.get("user2", purpose="service"))
        assert counts == {**NOTHING, "raw_decode": 1, "from_dict": 1,
                          "to_dict": derived, "iterencode": derived}, counts
        assert record.metadata == stored and record.metadata != drifted
        assert record.metadata is not stored
        assert record.value == b"personal-data" * 8
