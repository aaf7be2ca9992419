"""Tests for the latency histogram."""

import pytest

from repro.common.histogram import LatencyHistogram


class TestRecording:
    def test_empty_summary(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean() == 0.0
        assert hist.percentile(50) == 0.0

    def test_count_and_mean(self):
        hist = LatencyHistogram()
        for latency in [1.0, 2.0, 3.0]:
            hist.record(latency)
        assert hist.count == 3
        assert hist.mean() == pytest.approx(2.0)

    def test_min_max_exact(self):
        hist = LatencyHistogram()
        for latency in [0.5, 0.1, 0.9]:
            hist.record(latency)
        assert hist.min() == pytest.approx(0.1)
        assert hist.max() == pytest.approx(0.9)

    def test_non_positive_clamped(self):
        hist = LatencyHistogram(min_latency=1e-9)
        hist.record(0.0)
        hist.record(-1.0)
        assert hist.count == 2
        assert hist.min() == pytest.approx(1e-9)

    def test_relative_error_bound(self):
        hist = LatencyHistogram(relative_error=0.01)
        for value in (1e-6, 37e-6, 1e-3, 0.5, 12.0):
            single = LatencyHistogram(relative_error=0.01)
            single.record(value)
            estimate = single.percentile(50)
            assert abs(estimate - value) / value < 0.03

    def test_bad_relative_error(self):
        with pytest.raises(ValueError):
            LatencyHistogram(relative_error=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(relative_error=1.0)


class TestPercentiles:
    def test_monotone_percentiles(self):
        hist = LatencyHistogram()
        for latency in [i / 1000.0 for i in range(1, 1001)]:
            hist.record(latency)
        p50 = hist.percentile(50)
        p95 = hist.percentile(95)
        p99 = hist.percentile(99)
        assert p50 <= p95 <= p99

    def test_p50_near_median(self):
        hist = LatencyHistogram()
        for latency in [i / 1000.0 for i in range(1, 1001)]:
            hist.record(latency)
        assert hist.percentile(50) == pytest.approx(0.5, rel=0.05)

    def test_p100_is_max_bucket(self):
        hist = LatencyHistogram()
        for latency in [0.1, 0.2, 5.0]:
            hist.record(latency)
        assert hist.percentile(100) == pytest.approx(5.0, rel=0.03)

    def test_invalid_percentile(self):
        hist = LatencyHistogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.percentile(0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_summary_keys(self):
        hist = LatencyHistogram()
        hist.record(1.0)
        summary = hist.summary()
        assert set(summary) == {"count", "mean", "min", "max",
                                "p50", "p95", "p99"}


class TestMerge:
    def test_merge_combines_counts(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        for latency in [1.0, 2.0]:
            a.record(latency)
        b.record(3.0)
        a.merge(b)
        assert a.count == 3
        assert a.mean() == pytest.approx(2.0)
        assert a.max() == pytest.approx(3.0)

    def test_merge_identical_geometry_is_lossless(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        whole = LatencyHistogram()
        for i, latency in enumerate(x * 1e-4 for x in range(1, 201)):
            (a if i % 2 else b).record(latency)
            whole.record(latency)
        a.merge(b)
        for pct in (50, 90, 95, 99, 100):
            assert a.percentile(pct) == whole.percentile(pct)
        assert a.count == whole.count
        assert a.mean() == pytest.approx(whole.mean())

    def test_merge_cross_geometry_resamples(self):
        a = LatencyHistogram(relative_error=0.01)
        b = LatencyHistogram(relative_error=0.05)
        for latency in [1e-3] * 10:
            a.record(latency)
        for latency in [1e-2] * 90:
            b.record(latency)
        a.merge(b)
        assert a.count == 100
        # p50/p99 sit in the resampled 10ms mass; error bounded by the
        # sum of the two relative errors.
        assert a.percentile(50) == pytest.approx(1e-2, rel=0.08)
        assert a.percentile(99) == pytest.approx(1e-2, rel=0.08)
        assert a.percentile(5) == pytest.approx(1e-3, rel=0.08)
        assert a.mean() == pytest.approx((10 * 1e-3 + 90 * 1e-2) / 100)
        assert a.max() == pytest.approx(1e-2)

    def test_merge_uneven_bucket_counts(self):
        # One worker saw a narrow unimodal load, the other a wide
        # multimodal one: very different bucket populations must still
        # fold into one faithful distribution.
        narrow = LatencyHistogram()
        wide = LatencyHistogram(relative_error=0.02)
        for latency in [100e-6] * 500:
            narrow.record(latency)
        for latency in [50e-6, 200e-6, 1e-3, 5e-3, 20e-3] * 20:
            wide.record(latency)
        assert len(narrow._buckets) != len(wide._buckets)
        narrow.merge(wide)
        assert narrow.count == 600
        assert narrow.percentile(50) == pytest.approx(100e-6, rel=0.05)
        # The 20ms tail (20 of 600 samples => > p96) must survive.
        assert narrow.percentile(99.9) == pytest.approx(20e-3, rel=0.05)
        assert narrow.min() == pytest.approx(50e-6)
        assert narrow.max() == pytest.approx(20e-3)

    def test_merge_into_empty_and_from_empty(self):
        empty = LatencyHistogram(relative_error=0.03)
        full = LatencyHistogram()
        for latency in [1e-3, 2e-3, 4e-3]:
            full.record(latency)
        empty.merge(full)
        assert empty.count == 3
        assert empty.percentile(100) == pytest.approx(4e-3, rel=0.05)
        full.merge(LatencyHistogram(relative_error=0.03))
        assert full.count == 3
