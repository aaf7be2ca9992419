"""Each right looks its subject up once, and Art. 17 is one command.

On every engine variant (both engines, each also behind the tiering
wrapper with part of the subject archived): ``right_to_erasure`` runs
exactly one ``DEL`` naming every key of the subject and one owner lookup;
Art. 15 and Art. 20 do one owner lookup each.
"""

import pytest

from repro.common.clock import SimClock
from repro.gdpr import GDPRMetadata, GDPRStore
from repro.gdpr.rights import (right_of_access, right_to_erasure,
                               right_to_portability)
from tests.support import ENGINE_FACTORIES

ALICE_KEYS = [f"alice:{i}" for i in range(5)]


@pytest.fixture(params=sorted(ENGINE_FACTORIES))
def store(request, monkeypatch):
    store = GDPRStore(kv=ENGINE_FACTORIES[request.param](SimClock()))
    for key in ALICE_KEYS:
        store.put(key, b"personal", GDPRMetadata(
            owner="alice", purposes=frozenset({"service"})))
    store.put("bob:0", b"other", GDPRMetadata(
        owner="bob", purposes=frozenset({"service"})))
    if getattr(store.kv, "supports_tiering", False):
        store.kv.demote_keys([b"alice:0", b"alice:1", b"alice:2"])
        assert store.kv.cold_keys_of_subject("alice")
    lookups = []
    owner_lookup = store.kv.keys_of_owner

    def counted(owner):
        lookups.append(owner)
        return owner_lookup(owner)

    monkeypatch.setattr(store.kv, "keys_of_owner", counted)
    store.lookups = lookups
    return store


def test_erasure_is_one_del_and_one_lookup(store):
    commands = []
    store.kv.monitor.attach(commands.append)
    processed = store.kv.stats.commands_processed
    receipt = right_to_erasure(store, "alice")
    assert receipt.keys_erased == ALICE_KEYS
    assert store.lookups == ["alice"]
    assert store.kv.stats.commands_processed - processed == 1
    assert len(commands) == 1
    assert commands[0].split(b"] ", 1)[1] == \
        b'"DEL" ' + b" ".join(b'"%s"' % key.encode() for key in ALICE_KEYS) \
        + b"\n"
    for key in ALICE_KEYS:
        assert not store.kv.has_live_key(key.encode())
    assert store.kv.has_live_key(b"bob:0")


def test_access_and_portability_look_up_once(store):
    report = right_of_access(store, "alice")
    assert [row["key"] for row in report.records] == ALICE_KEYS
    assert store.lookups == ["alice"]
    right_to_portability(store, "alice")
    assert store.lookups == ["alice", "alice"]
