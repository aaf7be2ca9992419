"""Tests for the three active-expiry strategies (Figure 2 mechanisms)."""

import random

import pytest

from repro.common.clock import SimClock
from repro.kvstore import KeyValueStore, StoreConfig
from repro.kvstore.expiry import (
    FullScanExpiryCycle,
    IndexedExpiryCycle,
    LazyExpiryCycle,
    make_strategy,
)
from tests.support import assert_refused


def populate(store, total, expired_fraction, now_offset=100.0):
    """Load keys; ``expired_fraction`` of them already past deadline."""
    db = store.databases[0]
    expired = int(total * expired_fraction)
    now = store.clock.now()
    for i in range(total):
        key = f"k{i}".encode()
        db.set_value(key, b"v")
        deadline = now - 1.0 if i < expired else now + now_offset
        store.set_key_expiry(db, key, deadline)
    return expired


class TestMakeStrategy:
    def test_known_names(self):
        assert isinstance(make_strategy("lazy"), LazyExpiryCycle)
        assert isinstance(make_strategy("fullscan"), FullScanExpiryCycle)
        assert isinstance(make_strategy("indexed"), IndexedExpiryCycle)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_strategy("magic")


class TestLazyCycle:
    def test_single_cycle_deletes_few(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="lazy"))
        expired = populate(store, 1000, 0.2)
        deleted = store.cron()
        # One slow cycle samples ~20 keys; with a 20% expired fraction it
        # stops after one inner loop (<= ~20 deletions, typically ~4).
        assert 0 <= deleted <= 40
        assert store.stats.expired_keys < expired

    def test_high_fraction_loops_until_below_quarter(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="lazy"))
        populate(store, 400, 1.0, now_offset=1000.0)
        deleted = store.cron()
        # With 100% expired the loop repeats; far more than one batch dies.
        assert deleted > 40

    def test_eventually_erases_everything(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="lazy"))
        expired = populate(store, 200, 0.3)
        for _ in range(2000):
            if store.stats.expired_keys >= expired:
                break
            store.clock.advance(0.1)
            store.cron()
        assert store.stats.expired_keys == expired

    def test_does_not_touch_unexpired(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="lazy"))
        populate(store, 100, 0.0)
        store.cron()
        assert len(store.databases[0]) == 100

    def test_charges_time_per_sample(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="lazy"))
        populate(store, 100, 0.5)
        before = store.clock.now()
        store.cron()
        assert store.clock.now() > before

    def test_stats_accumulate(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="lazy"))
        populate(store, 100, 0.5)
        store.cron()
        assert store.expiry.stats.cycles >= 1
        assert store.expiry.stats.sampled > 0


class TestFullScanCycle:
    def test_one_cycle_erases_all_expired(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="fullscan"))
        expired = populate(store, 1000, 0.2)
        deleted = store.cron()
        assert deleted == expired
        assert len(store.databases[0]) == 1000 - expired

    def test_repeat_cycle_idempotent(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="fullscan"))
        populate(store, 100, 0.5)
        store.cron()
        assert store.cron() == 0

    def test_scan_cost_scales_with_volatile_count(self):
        small = KeyValueStore(StoreConfig(expiry_strategy="fullscan"))
        populate(small, 100, 0.0)
        big = KeyValueStore(StoreConfig(expiry_strategy="fullscan"))
        populate(big, 10_000, 0.0)
        small.cron()
        big.cron()
        assert big.clock.now() > small.clock.now()


class TestIndexedCycle:
    def test_one_cycle_erases_all_expired(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="indexed"))
        expired = populate(store, 1000, 0.2)
        assert store.cron() == expired

    def test_stale_entries_skipped_after_persist(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="indexed"))
        store.execute("SET", "k", "v", "EX", 1)
        store.execute("PERSIST", "k")
        store.clock.advance(2)
        assert store.cron() == 0
        assert store.execute("GET", "k") == b"v"

    def test_stale_entries_skipped_after_reexpire(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="indexed"))
        store.execute("SET", "k", "v", "EX", 1)
        store.execute("EXPIRE", "k", 1000)  # new deadline, old heap entry
        store.clock.advance(2)
        assert store.cron() == 0
        assert store.execute("EXISTS", "k") == 1

    def test_cost_independent_of_live_keys(self):
        # O(k log n) pops vs full scans: with zero expired keys, the
        # indexed cycle does no per-key work at all.
        store = KeyValueStore(StoreConfig(expiry_strategy="indexed"))
        populate(store, 10_000, 0.0)
        before = store.clock.now()
        store.cron()
        assert store.clock.now() == before

    def test_flush_clears_index(self):
        store = KeyValueStore(StoreConfig(expiry_strategy="indexed"))
        store.execute("SET", "k", "v", "EX", 1)
        store.execute("FLUSHDB")
        assert store.expiry.index_size == 0


class TestStrategySwitch:
    def test_config_set_switch_rebuilds_index(self):
        # The strategy is chosen when the store is built: CONFIG SET is
        # not served, so no switch leaves an index to rebuild.
        store = KeyValueStore(StoreConfig(expiry_strategy="lazy"))
        store.execute("SET", "k", "v", "EX", 1)
        assert_refused(store, "CONFIG", "SET", "active-expiry-strategy",
                       "indexed")
        assert store.expiry.name == "lazy"
        store.clock.advance(2)
        assert store.cron() == 1

    def test_deterministic_with_seed(self):
        def run(seed):
            store = KeyValueStore(
                StoreConfig(expiry_strategy="lazy", seed=seed))
            populate(store, 500, 0.4)
            deleted = []
            for _ in range(20):
                store.clock.advance(0.1)
                deleted.append(store.cron())
            return deleted

        assert run(7) == run(7)
        assert run(7) != run(8) or sum(run(7)) == 0
