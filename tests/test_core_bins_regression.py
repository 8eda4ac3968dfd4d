"""Unit tests for Eq. 1 bin sizing and per-bin regression."""

import math

import numpy as np
import pytest
from oracles.record_path import bin_fit_residual as oracle_fit_residual
from oracles.record_path import bin_slopes as oracle_bin_slopes
from oracles.record_path import ols_slope

from repro.core.bins import (
    DEFAULT_SLOPE_THRESHOLD,
    DEFAULT_WEIGHT,
    DPG_FIXED_BIN_SIZE,
    SMALL_CLUSTER_CUTOFF,
    dynamic_bin_size,
)
from repro.core.regression import (
    _BLOCK_CELLS,
    bin_edges,
    bin_fit_residual_rows,
    bin_slopes,
    padded_blocks,
    row_sums,
    size_class,
    size_classes,
)

#: Both sides of every size-class edge, and past the pairwise block.
CLASS_EDGES = (1, 2, 7, 8, 11, 12, 15, 16, 127, 128, 129)


class TestDynamicBinSize:
    def test_small_clusters_use_one(self):
        for n in range(SMALL_CLUSTER_CUTOFF):
            assert dynamic_bin_size(n) == 1

    def test_eq1_formula(self):
        for n in (12, 25, 100, 1000, 3500):
            assert dynamic_bin_size(n) == math.floor(DEFAULT_WEIGHT * math.sqrt(n))

    def test_weight_scales_bins(self):
        assert dynamic_bin_size(400, weight=1.75) > dynamic_bin_size(400, weight=0.75)

    def test_monotone_in_n(self):
        sizes = [dynamic_bin_size(n) for n in range(12, 4000, 37)]
        assert sizes == sorted(sizes)

    def test_paper_tuned_defaults(self):
        assert DEFAULT_WEIGHT == 0.75
        assert DEFAULT_SLOPE_THRESHOLD == 0.5
        assert DPG_FIXED_BIN_SIZE == 25

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            dynamic_bin_size(-1)
        with pytest.raises(ValueError):
            dynamic_bin_size(10, weight=0.0)


class TestOlsSlope:
    """The scalar oracle ``bin_slopes`` is held to (``TestBinSlopes``)."""

    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert ols_slope(x, 2.0 * x + 1.0) == pytest.approx(2.0)

    def test_flat_line(self):
        x = np.arange(5.0)
        assert ols_slope(x, np.full(5, 3.0)) == pytest.approx(0.0)

    def test_degenerate_x_returns_zero(self):
        assert ols_slope(np.ones(4), np.arange(4.0)) == 0.0

    def test_single_point_returns_zero(self):
        assert ols_slope(np.array([1.0]), np.array([2.0])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ols_slope(np.arange(3.0), np.arange(4.0))

    def test_matches_numpy_polyfit(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 10, 30))
        y = rng.normal(0, 1, 30)
        expected = np.polyfit(x, y, 1)[0]
        assert ols_slope(x, y) == pytest.approx(expected)


class TestBinEdges:
    def test_binsize_one_is_consecutive_pairs(self):
        edges = bin_edges(5, 1)
        assert edges == [(0, 2), (1, 3), (2, 4), (3, 5)]

    def test_bins_share_boundary_point(self):
        edges = bin_edges(10, 3)
        for (s1, e1), (s2, _e2) in zip(edges, edges[1:]):
            assert s2 == s1 + 3
            assert s2 < e1  # one shared point keeps the trend continuous

    def test_last_bin_clipped(self):
        edges = bin_edges(10, 4)
        assert edges[-1][1] == 10

    def test_all_points_covered(self):
        for n in (2, 7, 23, 100):
            for b in (1, 3, 10):
                edges = bin_edges(n, b)
                covered = set()
                for s, e in edges:
                    covered.update(range(s, e))
                assert covered == set(range(n))

    def test_tiny_inputs(self):
        assert bin_edges(0, 1) == []
        assert bin_edges(1, 1) == []
        assert bin_edges(2, 5) == [(0, 2)]

    def test_invalid_binsize(self):
        with pytest.raises(ValueError):
            bin_edges(10, 0)


class TestBinSlopes:
    def test_matches_per_bin_ols(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0, 50, 40))
        y = rng.normal(10, 2, 40)
        slopes, edges = bin_slopes(x, y, 5)
        assert list(zip(*edges)) == bin_edges(40, 5)
        for slope, s, e in zip(slopes, *edges):
            assert slope == pytest.approx(ols_slope(x[s:e], y[s:e]), abs=1e-9)

    def test_rising_then_falling_profile(self):
        x = np.linspace(0, 10, 21)
        y = np.concatenate([np.linspace(5, 15, 11), np.linspace(15, 5, 10)])
        slopes, _edges = bin_slopes(x, y, 2)
        assert slopes[0] > 0.5
        assert slopes[-1] < -0.5

    def test_empty_when_too_few_points(self):
        slopes, (starts, stops) = bin_slopes(np.array([1.0]), np.array([2.0]), 1)
        assert slopes.size == 0 and starts.size == 0 and stops.size == 0


def padded(rows: list[np.ndarray], width: int) -> np.ndarray:
    """Rows left-aligned in a ``(rows, width)`` block of ``-0.0``."""
    block = np.full((len(rows), width), -0.0)
    for i, row in enumerate(rows):
        block[i, : row.size] = row
    return block


class TestPaddedRows:
    """The padding rule every ragged block stands on."""

    def test_size_classes(self):
        assert size_class(np.array(CLASS_EDGES)).tolist() == [
            7, 7, 7, 15, 15, 15, 15, 23, 127, 128, 129,
        ]

    def test_row_sums_equal_one_d_sums_at_every_length(self):
        """Every n from 1 to 139, in one block wider than any class, at
        magnitudes from 1e-6 to 1e6 with -0.0 cells among the values."""
        rng = np.random.default_rng(0)
        lengths = np.repeat(np.arange(1, 140), 30)
        rows = [
            rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, n) for n in lengths
        ]
        for row in rows[::7]:
            row[rng.integers(0, row.size)] = -0.0
        got = row_sums(padded(rows, 150), size_classes(lengths))
        want = np.array([row.sum() for row in rows])
        assert got.tobytes() == want.tobytes()
        stacked = row_sums(np.stack([padded(rows, 150)] * 2, axis=1), size_classes(lengths))
        assert stacked[:, 1].tobytes() == want.tobytes()

    def test_blocks_hold_every_row_once(self):
        rng = np.random.default_rng(1)
        lengths = np.concatenate([rng.integers(1, 40, 900), [127, 128, 129, 5000]])
        blocks = padded_blocks(lengths)
        rows = np.concatenate([sel for sel, _width in blocks])
        assert np.sort(rows).tolist() == list(range(lengths.size))
        for sel, width in blocks:
            assert (np.diff(sel) > 0).all()
            assert width == size_class(lengths[sel]).max()
            assert sel.size * width <= _BLOCK_CELLS or np.unique(size_class(lengths[sel])).size == 1

    def test_ragged_bin_slopes_equal_one_d_calls(self):
        """Rows of every class-edge length, each at its own bin size, in one
        block: slopes, edges and FitResidual are the unpadded 1-D calls'."""
        rng = np.random.default_rng(2)
        lengths = np.array(CLASS_EDGES * 3)
        binsizes = rng.integers(1, 12, lengths.size)
        xs = [np.sort(rng.uniform(0.0, 50.0, n)).round(1) for n in lengths]
        ys = [5.0 + rng.exponential(3.0, n) for n in lengths]
        ys[0][:] = 6.0
        x, y = padded(xs, 129), padded(ys, 129)
        slopes, (starts, stops) = bin_slopes(x, y, binsizes, lengths)
        residual = bin_fit_residual_rows(x, y, slopes, (starts, stops))
        for i, b in enumerate(binsizes.tolist()):
            want, edges = oracle_bin_slopes(xs[i], ys[i], b)
            k = len(edges)
            assert slopes[i, :k].tobytes() == want.tobytes()
            assert list(zip(starts[i, :k].tolist(), stops[i, :k].tolist())) == edges
            assert not slopes[i, k:].any() and not stops[i, k:].any()
            assert residual[i] == oracle_fit_residual(xs[i], ys[i], b)


def bin_fit_residual(x, y, binsize):
    """FitResidual of one profile through the live row-wise path."""
    slopes, edges = bin_slopes(x[None, :], y[None, :], binsize)
    residual = bin_fit_residual_rows(x[None, :], y[None, :], slopes, edges)[0]
    assert residual == oracle_fit_residual(x, y, binsize)
    return residual


class TestFitResidual:
    def test_zero_for_perfect_lines(self):
        x = np.linspace(0, 10, 30)
        assert bin_fit_residual(x, 3.0 * x + 1.0, 5) == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_noise(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0, 10, 50))
        y = rng.normal(0, 5, 50)
        assert bin_fit_residual(x, y, 5) > 0.1

    def test_empty_input(self):
        assert bin_fit_residual(np.array([]), np.array([]), 3) == 0.0
