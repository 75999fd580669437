"""Unit tests for measurement utilities (repro.sim.trace)."""

import pytest

from repro.sim.trace import LatencyRecorder, mops, percentile


class TestPercentile:
    def test_median_of_odd_set(self):
        assert percentile([5, 1, 3], 0.5) == 3

    def test_median_of_even_set_nearest_rank(self):
        assert percentile([1, 2, 3, 4], 0.5) == 2

    def test_p99_of_uniform_range(self):
        data = list(range(1, 101))
        assert percentile(data, 0.99) == 99

    def test_extremes(self):
        data = [10, 20, 30]
        assert percentile(data, 0.0) == 10
        assert percentile(data, 1.0) == 30

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_fraction_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestLatencyRecorder:
    def test_summary_statistics(self):
        recorder = LatencyRecorder()
        for value in [1000, 2000, 3000, 4000]:
            recorder.record(value)
        assert recorder.count == 4
        assert recorder.median_us() == pytest.approx(2.0)

    def test_p99_dominated_by_tail(self):
        recorder = LatencyRecorder()
        for _ in range(99):
            recorder.record(1_000)
        recorder.record(50_000)
        assert recorder.p99_us() == pytest.approx(1.0)

    def test_negative_latency_rejected(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.record(-1.0)


class TestMops:
    def test_rate_conversion(self):
        # 1000 ops in 1_000_000 ns = 1 Mops
        assert mops(1000, 1_000_000) == pytest.approx(1.0)

    def test_zero_elapsed(self):
        assert mops(100, 0) == 0.0
