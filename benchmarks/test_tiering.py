"""The tiering scenario as a pytest-benchmark driver.

Writes ``bench_results/tiering.txt`` and asserts the comparison's
*relationships* (not exact values): demotion frees resident hot
footprint roughly in proportion to the cold fraction, cold reads pay a
promote premium, and Art. 17 erasure reaches the archive (segments
voided, longer receipt) -- while at hot fraction 1.0 the tiered store
is indistinguishable from hot-only.
"""

from repro.bench.tiering import TIERING, footprint_reduction


def test_tiering_artifact(rows_of, write_artifact):
    write_artifact("tiering.txt")
    rows = rows_of(TIERING)
    by = {(row["mode"], row["hot_fraction"]): row for row in rows}
    kept = footprint_reduction(rows)

    # At hot fraction 1.0 every key stays warm: nothing demotes and the
    # resident footprint matches hot-only exactly.
    assert by[("tiered", 1.0)]["demotions"] == 0
    assert by[("tiered", 1.0)]["hot_bytes"] \
        == by[("hot-only", 1.0)]["hot_bytes"]

    for fraction in (0.5, 0.25):
        hot_only = by[("hot-only", fraction)]
        tiered = by[("tiered", fraction)]
        # The headline: the archive frees the idle share of the
        # resident footprint, its own index included (within slack for
        # envelope-size variation).
        assert tiered["hot_bytes"] < hot_only["hot_bytes"]
        assert kept[fraction] < fraction + 0.15
        assert tiered["demotions"] > 0
        # Footprint is sampled before the cold-read probe, so every
        # demoted key is still archived at that point.
        assert tiered["cold_keys"] == tiered["demotions"]
        # The archive's own residency is an index (key directory +
        # subject blooms), not a copy: a small fraction of the hot
        # bytes it displaced, all of which are on the device.
        displaced = hot_only["hot_bytes"] - tiered["hot_bytes"]
        assert 0 < tiered["cold_resident_bytes"] < 0.15 * displaced
        assert tiered["cold_device_bytes"] > displaced
        # Reads that fault in from the archive pay a promote premium.
        assert tiered["cold_read_seconds"] \
            > 2 * hot_only["cold_read_seconds"]
        assert tiered["promotions"] > 0
        # Art. 17 reaches the archive: segments voided, receipt still
        # complete, and slower than the all-hot erasure.
        assert tiered["cold_segments_voided"] >= 1
        assert tiered["keys_erased"] == hot_only["keys_erased"]
        assert tiered["erase_seconds"] > hot_only["erase_seconds"]

    # Deeper cold tier => more of the erasure work lands in the archive.
    assert by[("tiered", 0.25)]["cold_device_bytes"] \
        > by[("tiered", 0.5)]["cold_device_bytes"]
