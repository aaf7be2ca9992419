"""Tests for the YCSB request-distribution generators."""

import random
from collections import Counter

import pytest

from repro.ycsb.distributions import (
    CounterGenerator,
    DiscreteGenerator,
    ScrambledZipfianGenerator,
    SkewedLatestGenerator,
    UniformGenerator,
    ZipfianGenerator,
    zeta,
)


class TestCounter:
    def test_sequence(self):
        gen = CounterGenerator()
        assert [gen.next_value() for _ in range(3)] == [0, 1, 2]
        assert gen.last_value() == 2

    def test_start_offset(self):
        gen = CounterGenerator(start=100)
        assert gen.next_value() == 100


class TestUniform:
    def test_bounds_respected(self):
        gen = UniformGenerator(5, 10, rng=random.Random(0))
        values = [gen.next_value() for _ in range(500)]
        assert min(values) >= 5 and max(values) <= 10

    def test_covers_range(self):
        gen = UniformGenerator(0, 9, rng=random.Random(0))
        assert len({gen.next_value() for _ in range(500)}) == 10

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformGenerator(10, 5)

    def test_last_value(self):
        gen = UniformGenerator(0, 100, rng=random.Random(0))
        value = gen.next_value()
        assert gen.last_value() == value


class TestZeta:
    def test_zeta_small(self):
        assert zeta(1, 0.99) == pytest.approx(1.0)
        assert zeta(2, 0.99) == pytest.approx(1.0 + 0.5 ** 0.99)

    def test_zeta_monotone(self):
        assert zeta(100, 0.99) < zeta(200, 0.99)


class TestZipfian:
    def test_bounds(self):
        gen = ZipfianGenerator(0, 99, rng=random.Random(0))
        values = [gen.next_value() for _ in range(2000)]
        assert min(values) >= 0 and max(values) <= 99

    def test_skew_towards_head(self):
        gen = ZipfianGenerator(0, 999, rng=random.Random(0))
        counts = Counter(gen.next_value() for _ in range(20_000))
        head = sum(counts[i] for i in range(10))
        tail = sum(counts[i] for i in range(990, 1000))
        assert head > tail * 10

    def test_most_popular_is_first(self):
        gen = ZipfianGenerator(0, 999, rng=random.Random(0))
        counts = Counter(gen.next_value() for _ in range(20_000))
        assert counts.most_common(1)[0][0] == 0

    def test_offset_range(self):
        gen = ZipfianGenerator(50, 59, rng=random.Random(0))
        values = {gen.next_value() for _ in range(1000)}
        assert min(values) >= 50 and max(values) <= 59

    def test_growing_item_count(self):
        gen = ZipfianGenerator(0, 9, rng=random.Random(0))
        values = [gen.next_for_items(100) for _ in range(2000)]
        assert max(values) > 9  # new items reachable
        assert max(values) <= 99

    def test_deterministic_with_seed(self):
        a = ZipfianGenerator(0, 99, rng=random.Random(5))
        b = ZipfianGenerator(0, 99, rng=random.Random(5))
        assert [a.next_value() for _ in range(50)] == \
            [b.next_value() for _ in range(50)]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(5, 4)


class TestScrambledZipfian:
    def test_bounds(self):
        gen = ScrambledZipfianGenerator(0, 999, rng=random.Random(0))
        values = [gen.next_value() for _ in range(5000)]
        assert min(values) >= 0 and max(values) <= 999

    def test_hotspots_scattered(self):
        gen = ScrambledZipfianGenerator(0, 999, rng=random.Random(0))
        counts = Counter(gen.next_value() for _ in range(20_000))
        top10 = [item for item, _ in counts.most_common(10)]
        # Scrambling spreads popularity: hot items are not clustered at 0.
        assert max(top10) > 100

    def test_still_skewed(self):
        gen = ScrambledZipfianGenerator(0, 999, rng=random.Random(0))
        counts = Counter(gen.next_value() for _ in range(20_000))
        top = counts.most_common(10)
        assert sum(c for _, c in top) > 20_000 * 0.05


class TestSkewedLatest:
    def test_favors_recent(self):
        basis = CounterGenerator(start=1000)
        gen = SkewedLatestGenerator(basis, rng=random.Random(0))
        values = [gen.next_value() for _ in range(5000)]
        assert max(values) == 999  # the most recent item
        recent = sum(1 for v in values if v > 900)
        old = sum(1 for v in values if v < 100)
        assert recent > old * 5

    def test_tracks_inserts(self):
        basis = CounterGenerator(start=10)
        gen = SkewedLatestGenerator(basis, rng=random.Random(0))
        gen.next_value()
        for _ in range(90):
            basis.next_value()
        values = [gen.next_value() for _ in range(2000)]
        assert max(values) == 99

    def test_values_nonnegative(self):
        basis = CounterGenerator(start=5)
        gen = SkewedLatestGenerator(basis, rng=random.Random(0))
        assert all(0 <= gen.next_value() <= 4 for _ in range(200))


class TestDiscrete:
    def test_proportions_respected(self):
        gen = DiscreteGenerator([("read", 0.9), ("update", 0.1)],
                                rng=random.Random(0))
        counts = Counter(gen.next_value() for _ in range(10_000))
        assert counts["read"] / 10_000 == pytest.approx(0.9, abs=0.02)

    def test_zero_weight_excluded(self):
        gen = DiscreteGenerator([("a", 1.0), ("b", 0.0)],
                                rng=random.Random(0))
        assert [label for label, _ in gen._thresholds] == ["a"]
        assert all(gen.next_value() == "a" for _ in range(100))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscreteGenerator([("a", 0.0)])

    def test_normalization(self):
        gen = DiscreteGenerator([("a", 3.0), ("b", 1.0)],
                                rng=random.Random(0))
        counts = Counter(gen.next_value() for _ in range(8000))
        assert counts["a"] / 8000 == pytest.approx(0.75, abs=0.03)
