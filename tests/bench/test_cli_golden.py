"""Golden stdout of the experiments whose output must not move.

Each digest is the SHA-256 of everything ``main([...])`` prints --
banner, table(s), summaries, footnotes -- at the argument rows of the
scenario-smoke table in ``.github/workflows/ci.yml``.  The six cluster
experiments were recorded on ``489c007`` *before* they moved onto
declared sweeps, ``table1`` and ``tenancy`` on ``e8b93a0`` before the
remaining experiments did, so a refactor of the bench harness that
moves a digit, a column width or a word of prose fails here rather
than in a reader's diff.  Simulated numbers depend on nothing but the
seed, so the digests are stable across hosts and Python versions.
"""

import hashlib

import pytest

from repro.bench.__main__ import main

GOLDEN = {
    "scaling": (
        "--records 40 --ops 80",
        "c13a6edf53eb4e3af9877b135964bdc67e985e41ea00ccc8c0619972a3c62b83"),
    "resharding": (
        "--records 40 --ops 80",
        "bda3db93d7df1ff8f21f07043fd7fdad97d113cf20f8608a7557f94d5eee785a"),
    "concurrency": (
        "--shards 2 --clients 4 --records 40 --ops 200",
        "2df1a03765cc992553ba32ac65456e8d80fdc0f13ae7ad47e6576b91c7a4bd70"),
    "workers": (
        "--cores 2 --records 40 --ops 200",
        "4fec031cb7802328812412123c118cb0891fe6ecaaa00e7052b656b9706d96b9"),
    "workers_skew": (
        "--cores 2 --records 40 --ops 200",
        "7bad66634721255bfdc5ebaea8dc23d776150a631fbc314b4c745ded0c25387d"),
    "replication": (
        "--shards 2 --replicas 2 --records 30 --ops 80",
        "ad3ee3d9f9bacb9c564899017fd81fa2a95405422ed890e8286854737e80904a"),
    "table1": (
        "",
        "5431b229a8e5e41f0f6bbe8f534ab1769984ce0075ec7865ab0b5d8e8c3ae50f"),
    "tenancy": (
        "--records 40 --ops 200",
        "c49aa05fdb271c288eccc8b8fa77e4d88afb40721c2d301bfe89c66863c5506f"),
}


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_stdout_matches_recorded_digest(experiment, capsys):
    args, digest = GOLDEN[experiment]
    assert main([experiment, *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out
