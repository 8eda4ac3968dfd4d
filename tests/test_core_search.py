"""Unit tests for Algorithm 1 (the peak-search state machine)."""

import numpy as np
import pytest
from oracles.record_path import find_single_pulses_recursive, spans_to_spe_ranges

from repro.core.search import (
    DOWN,
    FLAT,
    UP,
    SearchParams,
    classify_trend,
    find_single_pulses,
)


def gaussian_profile(center, width, height, xs, floor=5.5):
    return floor + height * np.exp(-0.5 * ((xs - center) / width) ** 2)


class TestClassifyTrend:
    def test_thresholding(self):
        assert classify_trend(-1.0, 0.5) == DOWN
        assert classify_trend(0.0, 0.5) == FLAT
        assert classify_trend(0.4, 0.5) == FLAT
        assert classify_trend(0.9, 0.5) == UP

    def test_boundary_is_flat(self):
        assert classify_trend(0.5, 0.5) == FLAT
        assert classify_trend(-0.5, 0.5) == FLAT


class TestSearchParams:
    def test_defaults_are_paper_values(self):
        params = SearchParams()
        assert params.weight == 0.75
        assert params.slope_threshold == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchParams(weight=0.0)
        with pytest.raises(ValueError):
            SearchParams(slope_threshold=-0.1)


class TestFindSinglePulses:
    def test_single_peak_found(self):
        xs = np.linspace(0, 40, 80)
        ys = gaussian_profile(20.0, 4.0, 15.0, xs)
        spans, edges = find_single_pulses(xs, ys)
        assert len(spans) == 1
        a, b, peak_hint = spans_to_spe_ranges(spans, edges)[0]
        # The true peak index must fall inside the detected range.
        assert a <= int(np.argmax(ys)) < b

    def test_two_peaks_found(self):
        xs = np.linspace(0, 100, 200)
        ys = gaussian_profile(25.0, 4.0, 15.0, xs) + gaussian_profile(75.0, 4.0, 12.0, xs) - 5.5
        spans, _edges = find_single_pulses(xs, ys)
        assert len(spans) == 2

    def test_flat_profile_yields_nothing(self):
        xs = np.linspace(0, 10, 40)
        spans, _ = find_single_pulses(xs, np.full(40, 6.0))
        assert spans == []

    def test_monotone_rise_yields_nothing(self):
        xs = np.linspace(0, 10, 40)
        spans, _ = find_single_pulses(xs, 5.0 + 3.0 * xs)
        assert spans == []  # climbs forever, never confirms a peak via descent

    def test_rise_then_fall_at_end_is_emitted(self):
        xs = np.linspace(0, 10, 60)
        ys = gaussian_profile(7.0, 1.5, 12.0, xs)
        spans, _ = find_single_pulses(xs, ys)
        assert len(spans) == 1

    def test_tiny_cluster_connect_the_dots(self):
        # 4 points: up, peak, down — binsize 1 per Eq. 1.
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        ys = np.array([6.0, 12.0, 11.0, 6.0])
        spans, edges = find_single_pulses(xs, ys)
        assert len(spans) == 1

    def test_fewer_than_two_points(self):
        spans, edges = find_single_pulses(np.array([1.0]), np.array([5.0]))
        assert spans == [] and edges == []

    def test_unsorted_dms_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            find_single_pulses(np.array([2.0, 1.0]), np.array([5.0, 6.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            find_single_pulses(np.arange(3.0), np.arange(4.0))

    def test_slope_threshold_suppresses_weak_trends(self):
        xs = np.linspace(0, 40, 80)
        ys = gaussian_profile(20.0, 8.0, 2.0, xs)  # shallow bump
        strict, _ = find_single_pulses(xs, ys, SearchParams(slope_threshold=5.0))
        loose, _ = find_single_pulses(xs, ys, SearchParams(slope_threshold=0.05))
        assert len(strict) == 0
        assert len(loose) >= 1

    def test_spans_map_to_valid_ranges(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0, 100, 200))
        ys = rng.uniform(5, 20, 200)
        spans, edges = find_single_pulses(xs, ys)
        for a, b, peak in spans_to_spe_ranges(spans, edges):
            assert 0 <= a < b <= 200
            assert a <= peak < b


class TestRecursiveEquivalence:
    def test_equivalent_on_gaussians(self):
        xs = np.linspace(0, 100, 150)
        ys = gaussian_profile(30.0, 5.0, 14.0, xs) + gaussian_profile(70.0, 3.0, 9.0, xs) - 5.5
        it, _ = find_single_pulses(xs, ys)
        rec, _ = find_single_pulses_recursive(xs, ys)
        assert it == rec

    def test_equivalent_on_random_profiles(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            xs = np.sort(rng.uniform(0, 50, n))
            ys = rng.uniform(5, 25, n)
            it, _ = find_single_pulses(xs, ys)
            rec, _ = find_single_pulses_recursive(xs, ys)
            assert it == rec

    def test_recursive_handles_deep_profiles(self):
        # Thousands of bins: the recursion-limit handling must hold.
        xs = np.linspace(0, 1000, 5000)
        rng = np.random.default_rng(1)
        ys = rng.uniform(5, 10, 5000)
        it, _ = find_single_pulses(xs, ys, binsize=1)
        rec, _ = find_single_pulses_recursive(xs, ys, binsize=1)
        assert it == rec
