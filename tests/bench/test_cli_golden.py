"""Golden stdout of the experiments whose output must not move.

Each digest is the SHA-256 of everything ``main([...])`` prints --
banner, table(s), summaries, footnotes -- at the experiment's row of
the scenario-smoke table in ``.github/workflows/ci.yml`` (``SMOKE`` in
``conftest.py``; the run is shared with ``test_registry.py``).  The six
cluster experiments were recorded on ``489c007`` *before* they moved
onto declared sweeps, ``table1`` and ``tenancy`` on ``e8b93a0`` before
the remaining experiments did, and ``figure1``, ``micro`` and
``ablations`` on ``104ce10`` before the single-node TLS and call-stack
deployments moved onto the event-driven server, so a refactor of the
bench harness that moves a digit, a column width or a word of prose
fails here rather than in a reader's diff.  ``table1`` has since gained a second table
(the verdict-less Table 1 that ``table1.txt`` commits), so its
``e8b93a0`` digest is kept as :data:`TABLE1_BEFORE` and checked
against the part of stdout that precedes the new table, and
``replication`` was re-recorded when its fan-out table's title changed
from "timer-pumped" to "event-delivered" (replication became one
delivery event per command; no number moved).  ``scaling`` and
``replication`` were re-recorded when Art. 17 became one DEL per shard:
only their ``erase_ms`` cells moved.  All three were re-recorded when
GDPR shards became nodes of the networked cluster: a cross-shard
Art. 17 now runs on every shard in one concurrent round trip, so
``scaling`` and ``replication`` moved in their multi-shard ``erase_ms``
cells only, and the slot migrator asks a key's deadline with
``PEXPIRETIME`` instead of ``PTTL``, a longer read that the GDPR-on
shards log, so ``resharding`` moved in its GDPR-on ``during ops/s``
cell only.  ``ablations`` was re-recorded when every GDPR request became
one barrier scope per device: a strict update's two audit records
share one fsync, so the audit-batch table's interval-0 row and the
``gdpr-strict`` and ``slowdown_x`` headline rows moved, nothing else.
It was re-recorded again when the audit log came to one block format:
a SYNC request seals one block (one line, one chain hash, one
``record_cpu_cost``) and a BATCH log seals 64-record blocks instead of
writing each record, so the same audit-batch rows and headline rows
moved, nothing else.  It was re-recorded once more when a queued
barrier became durable only once it lands: each BATCH row's last block
is still in flight when the run ends, so its ``records_at_risk`` cell
counts that block too (29 became 93), nothing else moved.  And once
more when a sealed value came to start with its subject's 16-byte sid:
the longer AOF records move the ``gdpr-strict`` row (562.41 -> 562.34
ops/s) and with it ``slowdown_x`` (39.39 -> 39.40), nothing else.
Simulated
numbers depend on
nothing but the seed, so the digests are stable across hosts and Python
versions.
"""

import hashlib

import pytest

GOLDEN = {
    "scaling":
        "f19a0ef65183ac504c6b602aa7fc850821ed6288d4adb61514bd8f1e88ed043f",
    "resharding":
        "580073e1722061c534758ec88bfc727b7ea0a0149075ce0b1022839f85e83f25",
    "concurrency":
        "2df1a03765cc992553ba32ac65456e8d80fdc0f13ae7ad47e6576b91c7a4bd70",
    "workers":
        "4fec031cb7802328812412123c118cb0891fe6ecaaa00e7052b656b9706d96b9",
    "workers_skew":
        "7bad66634721255bfdc5ebaea8dc23d776150a631fbc314b4c745ded0c25387d",
    "replication":
        "313123e1fae8ccd8a70af2209c6bd28674918fcfe1de07ba99735cbdd3c3090d",
    "table1":
        "0f4653082db468f1feaeffc077987bf4de0e3b001b6037c4ee8d16c2909d802d",
    "tenancy":
        "c49aa05fdb271c288eccc8b8fa77e4d88afb40721c2d301bfe89c66863c5506f",
    "figure1":
        "9d67f8722558d3f7e1a1f1590c8ae632e6f49e4a1700740dce48495c9e9e5f55",
    "micro":
        "9e35a308005b8c1fd45bc26a85b980059767f2b1d571d693bcf7393875de4b02",
    "ablations":
        "f4ed986f652ffcf810d9f340eb2294bfa56eaa073e738b4e893103f698ba05fe",
}

# (bytes, SHA-256) of everything ``table1`` printed at ``e8b93a0``.
TABLE1_BEFORE = (
    2740,
    "5431b229a8e5e41f0f6bbe8f534ab1769984ce0075ec7865ab0b5d8e8c3ae50f")


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_stdout_matches_recorded_digest(experiment, smoke_stdout):
    out = smoke_stdout(experiment)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == GOLDEN[experiment], out


def test_table1_still_starts_with_what_it_printed_before(smoke_stdout):
    length, digest = TABLE1_BEFORE
    out = smoke_stdout("table1").encode("utf-8")
    assert len(out) > length
    assert hashlib.sha256(out[:length]).hexdigest() == digest
