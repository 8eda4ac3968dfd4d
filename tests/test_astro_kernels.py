"""Kernel-layer equivalence: vectorized front end vs retained references.

Property tests (hypothesis) assert that the batch/subband dedispersion,
O(n) boxcar search, and columnar DBSCAN kernels agree with the naive
``_reference_*`` implementations they replaced — bit-for-bit where the
kernels are exact, tolerance-bounded where they trade exactness for reuse
(subband, every channel within ``tol_samples + 1`` samples of its exact
shift).  A golden end-to-end test checks an injected pulse is recovered
at its true DM/time/width by the vectorized search.
"""

import math
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.frontend import (
    _reference_best_z,
    _reference_block_search,
    _reference_boxcar_snr,
    _reference_dbscan,
    _reference_dedisperse,
    _reference_find_peaks,
    _reference_noise_stats,
    _reference_single_pulse_search,
)

from repro.astro import GBT350DRIFT, clustering, generate_observation, kernels
from repro.astro.clustering import NOISE, Cluster, SinglePulseDBSCAN
from repro.astro.dispersion import DMGrid, smearing_snr_factor, smearing_snr_factors
from repro.astro.filterbank import (
    InjectedPulse,
    dedisperse,
    dedisperse_all,
    single_pulse_search,
    synthesize_filterbank,
)
from repro.astro.kernels import (
    _subband_edges,
    boxcar_snr,
    dedisperse_batch,
    dedisperse_grid,
    dedisperse_subband,
    find_peaks,
    single_pulse_block_search,
)
from repro.astro.population import b1853_like
from repro.astro.survey import default_clusterer

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _filterbank_block(rng: np.random.Generator, n_chan: int, n_samples: int):
    data = rng.normal(0.0, 1.0, size=(n_chan, n_samples))
    edges = np.linspace(300.0, 400.0, n_chan + 1)
    freqs = 0.5 * (edges[:-1] + edges[1:])
    return data, freqs, 400.0


class TestBatchDedispersion:
    @SETTINGS
    @given(
        n_chan=st.integers(2, 24),
        n_samples=st.integers(8, 300),
        dms=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=8),
        seed=st.integers(0, 2**31),
    )
    def test_batch_matches_reference(self, n_chan, n_samples, dms, seed):
        """Each batch row is the per-DM reference within 1e-9 (float64)."""
        rng = np.random.default_rng(seed)
        data, freqs, f_ref = _filterbank_block(rng, n_chan, n_samples)
        block = dedisperse_batch(data, freqs, f_ref, 1e-3, dms)
        for row, dm in zip(block, dms):
            ref = _reference_dedisperse(data, freqs, f_ref, 1e-3, float(dm))
            assert np.max(np.abs(row - ref)) <= 1e-9

    @SETTINGS
    @given(
        n_chan=st.integers(4, 32),
        n_samples=st.integers(64, 400),
        dm_lo=st.floats(0.0, 100.0),
        step=st.floats(0.01, 0.2),
        n_dms=st.integers(2, 30),
        seed=st.integers(0, 2**31),
    )
    def test_subband_within_shift_tolerance(
        self, n_chan, n_samples, dm_lo, step, n_dms, seed
    ):
        """Subband shifts differ from exact ones by ≤ tol_samples + 1.

        Checked structurally on a noiseless dispersed impulse: at the exact
        peak's (DM row, sample), all of the pulse's mass must land within
        ±(tol + 2) samples in the subband output — per-channel quantization
        may split the peak across neighbouring samples (especially with few
        channels) but cannot move mass out of that window.
        """
        dms = dm_lo + step * np.arange(n_dms)
        data = np.zeros((n_chan, n_samples))
        edges = np.linspace(300.0, 400.0, n_chan + 1)
        freqs = 0.5 * (edges[:-1] + edges[1:])
        # A dispersed impulse at the middle DM of the ladder.
        from repro.astro.dispersion import K_DM

        true_dm = float(dms[n_dms // 2])
        t0 = n_samples // 2
        for ch in range(n_chan):
            delay = K_DM * true_dm * (freqs[ch] ** -2 - 400.0**-2)
            s = t0 + int(round(delay / 1e-3))
            if s < n_samples:
                data[ch, s] = 1.0
        batch = dedisperse_batch(data, freqs, 400.0, 1e-3, dms)
        sub = dedisperse_subband(data, freqs, 400.0, 1e-3, dms, tol_samples=1.0)
        assert sub.shape == batch.shape
        d, i = np.unravel_index(batch.argmax(), batch.shape)
        window = sub[d, max(0, i - 3) : i + 4]
        assert window.sum() >= 0.95 * batch[d, i]

    def test_subband_falls_back_on_coarse_ladders(self):
        """Widely spaced DMs admit no partial-sum reuse: exact path used."""
        rng = np.random.default_rng(0)
        data, freqs, f_ref = _filterbank_block(rng, 16, 256)
        dms = [0.0, 150.0, 400.0, 900.0]
        sub = dedisperse_subband(data, freqs, f_ref, 1e-3, dms)
        batch = dedisperse_batch(data, freqs, f_ref, 1e-3, dms)
        assert np.array_equal(sub, batch)

    def test_subband_falls_back_on_descending_frequencies(self):
        """Channels ordered high to low take the exact path, byte for byte."""
        rng = np.random.default_rng(4)
        data, freqs, f_ref = _filterbank_block(rng, 12, 128)
        freqs = freqs[::-1].copy()
        dms = 20.0 + 0.05 * np.arange(32)
        sub = dedisperse_subband(data, freqs, f_ref, 1e-3, dms)
        batch = dedisperse_batch(data, freqs, f_ref, 1e-3, dms)
        assert sub.tobytes() == batch.tobytes()

    def test_subband_recovers_impulse_near_exact_peak(self):
        """Structural equivalence subband ≈ direct on a noiseless dispersed
        impulse: the subband path keeps the pulse's mass within the
        tolerance window around the exact peak."""
        from repro.astro.dispersion import K_DM

        n_chan, n_samples = 32, 512
        dms = 40.0 + 0.05 * np.arange(64)
        data = np.zeros((n_chan, n_samples))
        edges = np.linspace(300.0, 400.0, n_chan + 1)
        freqs = 0.5 * (edges[:-1] + edges[1:])
        true_dm = float(dms[32])
        t0 = n_samples // 2
        for ch in range(n_chan):
            delay = K_DM * true_dm * (freqs[ch] ** -2 - 400.0**-2)
            s = t0 + int(round(delay / 1e-3))
            if s < n_samples:
                data[ch, s] = 1.0
        batch = dedisperse_batch(data, freqs, 400.0, 1e-3, dms)
        d, i = np.unravel_index(batch.argmax(), batch.shape)
        sub = dedisperse_subband(data, freqs, 400.0, 1e-3, dms)
        assert sub.shape == batch.shape
        window = sub[d, max(0, i - 8) : i + 9]
        assert window.sum() >= 0.95 * batch[d, i]

    @pytest.mark.parametrize("bad", [
        dict(tol_samples=float("nan")),
        dict(tol_samples=float("inf")),
        dict(n_subbands=2.5),
        dict(n_subbands=True),
    ])
    def test_subband_rejects_non_finite_or_non_integer_settings(self, bad):
        """A NaN/inf tolerance would put every trial DM in one group."""
        rng = np.random.default_rng(1)
        data, freqs, f_ref = _filterbank_block(rng, 16, 128)
        with pytest.raises(ValueError, match=next(iter(bad))):
            dedisperse_subband(data, freqs, f_ref, 1e-3, 10.0 + 0.05 * np.arange(20),
                               **bad)

    def test_grid_dispatch_routes_methods(self):
        from repro.execution import KernelConfig

        rng = np.random.default_rng(9)
        data, freqs, f_ref = _filterbank_block(rng, 16, 200)
        dms = 10.0 + 0.05 * np.arange(24)
        direct = dedisperse_grid(data, freqs, f_ref, 1e-3, dms,
                                 kernel=KernelConfig(method="direct"))
        assert np.array_equal(direct, dedisperse_batch(data, freqs, f_ref, 1e-3, dms))
        sub = dedisperse_grid(data, freqs, f_ref, 1e-3, dms,
                              kernel=KernelConfig(method="subband"))
        assert np.array_equal(sub, dedisperse_subband(data, freqs, f_ref, 1e-3, dms))

    def test_single_dm_wrapper_matches_batch(self):
        fb = synthesize_filterbank(duration_s=0.5, n_channels=16, seed=5)
        one = dedisperse(fb, 42.0)
        block = dedisperse_all(fb, np.array([42.0]))
        assert np.array_equal(one, block[0])


class TestSubbandEdges:
    def test_prime_channel_count_distributes_remainder(self):
        """Satellite bug: the remainder used to pile into the last subband.

        13 channels over 4 subbands must split 4+3+3+3 (leading subbands
        take the extra channel), not 3+3+3+4-or-worse."""
        assert _subband_edges(13, 4) == [(0, 4), (4, 7), (7, 10), (10, 13)]

    @SETTINGS
    @given(
        n_chan=st.integers(1, 97),
        n_subbands=st.integers(1, 16),
    )
    def test_edges_are_contiguous_and_balanced(self, n_chan, n_subbands):
        n_subbands = min(n_subbands, n_chan)
        edges = _subband_edges(n_chan, n_subbands)
        assert edges[0][0] == 0 and edges[-1][1] == n_chan
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
        sizes = [hi - lo for lo, hi in edges]
        assert max(sizes) - min(sizes) <= 1
        # Larger blocks lead (remainder distributed across leading subbands).
        assert sizes == sorted(sizes, reverse=True)


class TestBoxcarSearch:
    @SETTINGS
    @given(
        n=st.integers(1, 400),
        seed=st.integers(0, 2**31),
        widths=st.lists(
            st.sampled_from([1, 2, 3, 4, 8, 16, 32]), min_size=1, max_size=5, unique=True
        ),
    )
    def test_cumsum_boxcar_matches_reference(self, n, seed, widths):
        """O(n) cumulative-sum z-scores equal the O(n·w) convolution ones."""
        widths = tuple(sorted(widths))
        rng = np.random.default_rng(seed)
        series = rng.normal(0.0, 1.0, size=n)
        snr, width = boxcar_snr(series, widths)
        snr_ref, width_ref = _reference_boxcar_snr(series, widths)
        np.testing.assert_allclose(snr, snr_ref, rtol=1e-7, atol=1e-8)
        assert np.array_equal(width, width_ref)

    @SETTINGS
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**31),
        threshold=st.floats(0.5, 6.0),
    )
    def test_vectorized_peaks_match_reference_scan(self, n, seed, threshold):
        rng = np.random.default_rng(seed)
        snr = rng.normal(0.0, 2.0, size=n)
        assert np.array_equal(
            find_peaks(snr, threshold), _reference_find_peaks(snr, threshold)
        )

    @SETTINGS
    @given(
        n_rows=st.integers(1, 4),
        n=st.integers(2, 300),
        seed=st.integers(0, 2**31),
    )
    def test_block_search_matches_per_series_kernels(self, n_rows, n, seed):
        """The fused block search is exactly per-row boxcar_snr + find_peaks."""
        rng = np.random.default_rng(seed)
        block = rng.normal(0.0, 1.0, size=(n_rows, n))
        widths = (1, 2, 4, 8)
        rows, samples, snrs, wid = single_pulse_block_search(block, 2.0, widths)
        got = {(int(r), int(s)): (float(v), int(w))
               for r, s, v, w in zip(rows, samples, snrs, wid)}
        expect = {}
        for r in range(n_rows):
            snr, width = boxcar_snr(block[r], widths)
            for s in find_peaks(snr, 2.0):
                expect[(r, int(s))] = (float(snr[s]), int(width[s]))
        assert got == expect

    def test_only_the_cumsum_boxcar_is_accepted(self):
        with pytest.raises(ValueError, match="boxcar"):
            single_pulse_block_search(np.zeros((2, 8)), 2.0, (1, 2), boxcar="decomposed")

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
    def test_block_search_rejects_non_finite_or_non_positive_threshold(self, threshold):
        """A NaN threshold used to pass the ``<= 0`` check and find nothing."""
        block = np.random.default_rng(0).normal(size=(2, 64))
        with pytest.raises(ValueError, match="threshold"):
            single_pulse_block_search(block, threshold)

    def test_a_width_longer_than_the_row_is_skipped_not_a_stop(self):
        """``(128, 1, 2, 4)`` on 64 samples used to find nothing, and
        ``boxcar_snr`` returned all −inf: the loop stopped at 128."""
        rng = np.random.default_rng(3)
        block = rng.normal(0.0, 1.0, size=(1, 64))
        block[0, [10, 40]] += 8.0
        want = single_pulse_block_search(block, 5.0, (1, 2, 4))
        got = single_pulse_block_search(block, 5.0, (128, 1, 2, 4))
        assert want[0].size >= 2
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        snr, width = boxcar_snr(block[0], (128, 1, 2, 4))
        snr_ref, width_ref = boxcar_snr(block[0], (1, 2, 4))
        assert np.isfinite(snr).any()
        assert snr.tobytes() == snr_ref.tobytes() and np.array_equal(width, width_ref)

    @pytest.mark.parametrize("widths", [(0,), (1, -2), (2.5,), (True, 2), ("4",), (None,)])
    def test_widths_must_be_positive_integers(self, widths):
        """``0``/``-2`` used to fail with a broadcast error, ``2.5`` with a
        ``TypeError``."""
        block = np.random.default_rng(0).normal(size=(2, 64))
        with pytest.raises(ValueError, match="widths"):
            single_pulse_block_search(block, 5.0, widths)
        with pytest.raises(ValueError, match="widths"):
            boxcar_snr(block[0], widths)

    def test_numpy_integer_widths_are_accepted(self):
        block = np.random.default_rng(0).normal(size=(3, 64))
        got = single_pulse_block_search(block, 2.0, (np.int64(1), np.int32(4)))
        want = single_pulse_block_search(block, 2.0, (1, 4))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 16), (0, 0)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_an_empty_block_finds_nothing(self, shape, dtype):
        """A ``(rows, 0)`` block used to raise "zero-size array to reduction
        operation maximum" while ``(0, n)`` returned empty."""
        got = single_pulse_block_search(np.zeros(shape, dtype=dtype), 5.0)
        assert [a.size for a in got] == [0, 0, 0, 0]
        assert [a.dtype for a in got] == [np.int64, np.int64, np.dtype(dtype), np.int64]

    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint8, bool])
    def test_a_non_float_block_is_refused_by_dtype(self, dtype):
        """An integer block used to raise ``OverflowError: cannot convert
        float infinity to integer``."""
        block = np.ones((2, 32), dtype=dtype)
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            single_pulse_block_search(block, 5.0)
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            boxcar_snr(block[0])


#: What each row of a drawn block holds (see ``_draw_row``).
ROW_KINDS = ("noise", "constant", "offset", "ties", "pulse")


def _draw_row(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "constant":  # MAD 0: sigma is the 1e-9 floor
        return np.full(n, rng.normal(0.0, 100.0))
    if kind == "offset":  # |median| ≫ sigma: the screen's slack term
        return rng.normal(0.0, 1.0, n) + rng.choice([-1, 1]) * 10.0 ** rng.uniform(3, 6)
    if kind == "ties":  # small integers: exact ties between widths and samples
        return rng.integers(-3, 4, n).astype(float)
    row = rng.normal(0.0, 1.0, n)
    if kind == "pulse" and n:
        w = int(rng.integers(1, 40))
        at = int(rng.integers(0, n))
        row[at : at + w] += rng.uniform(0.5, 6.0)
    return row


def _oracle_snrs(row: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """Every sample's S/N as the per-row loop computes it."""
    n = row.size
    med, sigma = _reference_noise_stats(row, np.empty_like(row))
    best = np.empty_like(row)
    _reference_best_z(row, widths, med, np.empty(n + 1, row.dtype), np.empty_like(row), best)
    return best / row.dtype.type(sigma)


class TestBlockedSearchEqualsPerRowLoop:
    """``single_pulse_block_search`` screens a block in its own dtype and
    recomputes the exact statistic at candidates only; the per-row loop it
    replaced (``oracles.frontend``) is the law, bit for bit."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=27),
        n=st.one_of(st.integers(1, 40), st.integers(41, 400)),
        dtype=st.sampled_from([np.float32, np.float64]),
        widths=st.lists(st.sampled_from([1, 2, 3, 4, 5, 8, 16, 32, 64]), min_size=1, max_size=6),
        threshold=st.floats(0.5, 8.0),
        edge=st.sampled_from([None, -1, 0, 1]),
        seed=st.integers(0, 2**31),
    )
    def test_random_blocks(self, kinds, n, dtype, widths, threshold, edge, seed):
        """Rows of noise, constants (the sigma floor), large offsets (the
        slack), small integers (ties) and pulses; widths in any order, some
        longer than the row; ``edge`` puts the threshold on a pulse's S/N
        or one ulp either side of it."""
        rng = np.random.default_rng(seed)
        block = np.array([_draw_row(k, n, rng) for k in kinds], dtype=dtype).reshape(len(kinds), n)
        fitting = tuple(w for w in widths if w <= n)
        if edge is not None:
            row = kinds.index("pulse") if "pulse" in kinds else 0
            snr = _oracle_snrs(block[row], fitting)
            snr = snr[np.isfinite(snr) & (snr > 0)]
            if snr.size:
                peak = snr.max()
                peak = peak if edge == 0 else np.nextafter(peak, edge * np.inf)
                threshold = float(peak) if np.isfinite(peak) else threshold
        got = single_pulse_block_search(block, threshold, tuple(widths))
        want = _reference_block_search(block, threshold, fitting)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_threshold_on_each_side_of_every_peak(self, dtype):
        """Every above-threshold S/N of a pulsed block, and its two
        neighbouring floats, as the threshold."""
        rng = np.random.default_rng(11)
        block = np.array([_draw_row("pulse", 300, rng) for _ in range(11)], dtype=dtype)
        widths = (1, 2, 4, 8, 16, 32)
        values = np.unique(np.concatenate([_oracle_snrs(r, widths) for r in block]))
        values = values[values > 3.0][-12:]
        assert values.size == 12
        for v in values:
            for t in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)):
                got = single_pulse_block_search(block, float(t), widths)
                want = _reference_block_search(block, float(t), widths)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_ties_between_widths_go_to_the_first(self):
        """With median 0, ``[2, 1, 1, 0]`` scores 2 at width 1 and at width
        4 alike; the first listed wins, as in the per-row loop."""
        row = np.zeros(64)
        row[1::2] = 0.25 * (-1) ** np.arange(32)
        row[20:24] = [2.0, 1.0, 1.0, 0.0]
        block = np.vstack([row] * 9)
        for widths in ((1, 4), (4, 1)):
            got = single_pulse_block_search(block, 1.0, widths)
            want = _reference_block_search(block, 1.0, widths)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert got[3][got[1] == 20].tolist() == [widths[0]] * 9


@contextmanager
def ndarray_method_calls(*names):
    """Count calls of the named ``ndarray`` methods (``np.cumsum`` is one
    ``ndarray.cumsum`` call) — they are C methods, so not patchable."""
    calls = Counter()

    def profile(_frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ndarray):
            if arg.__name__ in names:
                calls[arg.__name__] += 1

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


class TestBlockedSearchGuards:
    """What the benchmark would catch late, caught without a clock."""

    @pytest.mark.parametrize("n_rows", [1, 8, 37])
    def test_partition_and_cumsum_run_once_per_block(self, n_rows):
        block = np.random.default_rng(2).normal(size=(n_rows, 500)).astype(np.float32)
        with ndarray_method_calls("partition", "cumsum") as calls:
            single_pulse_block_search(block, 5.0)
        blocks = math.ceil(n_rows / kernels._BLOCK_ROWS)
        # Two medians (the row and its absolute deviations) per block.
        assert dict(calls) == {"partition": 2 * blocks, "cumsum": blocks}

    def test_exact_values_only_at_candidates_and_their_neighbours(self, monkeypatch):
        rng = np.random.default_rng(5)
        block = np.array([_draw_row("pulse", 4096, rng) for _ in range(37)], dtype=np.float32)
        candidates, exact = [], []
        flatnonzero, exact_best = np.flatnonzero, kernels._exact_best

        def counted_flatnonzero(a):
            found = flatnonzero(a)
            candidates.append(found.size)
            return found

        def counted_exact(csum, rows, samples, widths, med):
            exact.append(samples.size)
            return exact_best(csum, rows, samples, widths, med)

        monkeypatch.setattr(np, "flatnonzero", counted_flatnonzero)
        monkeypatch.setattr(kernels, "_exact_best", counted_exact)
        got = single_pulse_block_search(block, 5.0)
        assert len(candidates) == math.ceil(37 / kernels._BLOCK_ROWS)
        assert exact == [3 * c for c in candidates if c]
        # A screen that let through whole rows would break this.
        assert 0 < sum(candidates) < 0.01 * block.size
        want = _reference_block_search(block, 5.0)
        assert got[0].size > 0
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestGoldenRecovery:
    def test_injected_pulse_recovered_at_truth(self):
        """End to end: the vectorized search finds the injected pulse at its
        true DM, time, and width."""
        true = InjectedPulse(time_s=4.0, dm=60.0, width_ms=16.0, amplitude=1.5)
        fb = synthesize_filterbank(
            duration_s=8.0, n_channels=64, f_low_mhz=300.0, f_high_mhz=400.0,
            sample_time_s=2e-3, pulses=[true], seed=11,
        )
        trials = np.arange(30.0, 90.0, 1.0)
        spes = single_pulse_search(fb, trials, snr_threshold=6.0)
        assert spes
        best = max(spes, key=lambda s: s.snr)
        assert abs(best.dm - true.dm) <= 2.0
        # Left-aligned convention: the window *starts* at best.time_s and
        # covers the pulse centroid.
        window_s = best.downfact * fb.sample_time_s
        assert best.time_s - window_s <= true.time_s <= best.time_s + 2 * window_s
        # Best-matching boxcar is within a factor ~2 of the true width.
        true_width_samples = true.width_ms / 1e3 / fb.sample_time_s
        assert true_width_samples / 4 <= best.downfact <= true_width_samples * 8

    def test_vectorized_and_reference_search_agree_on_detections(self):
        """Same pulse, both paths: peak DM agrees; SNRs within a few %.

        (Emitted sample positions deliberately differ: the reference centres
        windows, the kernel left-aligns them.)
        """
        true = InjectedPulse(time_s=2.0, dm=45.0, width_ms=10.0, amplitude=1.5)
        fb = synthesize_filterbank(
            duration_s=4.0, n_channels=32, sample_time_s=2e-3, pulses=[true], seed=2,
        )
        trials = np.arange(30.0, 60.0, 1.5)
        vec = single_pulse_search(fb, trials, snr_threshold=6.0, dtype=np.float64)
        ref = _reference_single_pulse_search(fb, trials, snr_threshold=6.0)
        assert vec and ref
        bv, br = max(vec, key=lambda s: s.snr), max(ref, key=lambda s: s.snr)
        assert bv.dm == br.dm
        assert abs(bv.snr - br.snr) / br.snr < 0.1


class TestGridDBSCAN:
    @SETTINGS
    @given(
        n=st.integers(0, 250),
        n_blobs=st.integers(1, 5),
        spread=st.floats(0.2, 3.0),
        seed=st.integers(0, 2**31),
    )
    def test_grid_labels_equal_reference_labels(self, n, n_blobs, spread, seed):
        """The pair passes yield *identical* labels to the dict-of-cells
        sweep: neighbour sets are equal, and the sweep's expansion order is
        fixed by the outer loop, not the neighbour enumeration order."""
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-40.0, 40.0, size=(n_blobs, 2))
        pts = centers[rng.integers(0, n_blobs, size=n)]
        pts = pts + rng.normal(0.0, spread, size=(n, 2)) if n else pts
        x, y = (pts[:, 0], pts[:, 1]) if n else (np.empty(0), np.empty(0))
        db = SinglePulseDBSCAN()
        assert np.array_equal(db._dbscan(x, y), _reference_dbscan(db, x, y))

    @SETTINGS
    @given(dms=st.lists(st.floats(0.0, 4000.0), min_size=1, max_size=50))
    def test_spacing_of_matches_spacing_at(self, dms):
        grid = DMGrid(max_dm=2000.0, coarsen=3.0)
        vec = grid.spacing_of(np.array(dms))
        assert np.array_equal(vec, np.array([grid.spacing_at(d) for d in dms]))

    @SETTINGS
    @given(
        deltas=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20),
        width_ms=st.floats(0.5, 50.0),
    )
    def test_vectorized_smearing_factors_match_scalar(self, deltas, width_ms):
        vec = smearing_snr_factors(np.array(deltas), width_ms, 350.0, 100.0)
        ref = [smearing_snr_factor(d, width_ms, 350.0, 100.0) for d in deltas]
        np.testing.assert_allclose(vec, ref, rtol=1e-12)


#: Block budgets that put every pair in its own block, split cells across
#: blocks, are the shipped constant, and hold everything in one block.
BUDGETS = st.sampled_from([1, 7, clustering._PAIR_CANDIDATES, 10**12])
MIN_SAMPLES = st.sampled_from([1, 2, 3, 4, 7])


def same_labels(x, y, min_samples=4, budget=clustering._PAIR_CANDIDATES):
    """``_dbscan`` labels, asserted equal to the sweep's."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    db = SinglePulseDBSCAN(min_samples=min_samples)
    with mock.patch.object(clustering, "_PAIR_CANDIDATES", budget):
        got = db._dbscan(x, y)
    assert np.array_equal(got, _reference_dbscan(db, x, y))
    return got


def clumps(n: int, sigma: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 400.0, size=(60, 2))
    pts = centers[rng.integers(0, 60, n)] + rng.normal(0.0, sigma, size=(n, 2))
    return pts[:, 0].copy(), pts[:, 1].copy()


def survey_observation(obs_length_s: float = 120.0):
    """About 5,000 SPEs at the default length: a pulsar, noise, RFI, mimics."""
    return generate_observation(
        GBT350DRIFT, [b1853_like()], seed=21, n_noise_clusters=200,
        n_rfi_bursts=12, n_pulse_mimics=30, obs_length_s=obs_length_s,
    )


def scaled(obs):
    db = default_clusterer(obs.grid)
    batch = obs.spe_batch
    steps = batch.dm / obs.grid.spacing_of(batch.dm)
    return db, batch, steps


class TestColumnarDBSCAN:
    """``_dbscan`` ≡ ``_reference_dbscan``, label for label, where the sweep's
    order could show: ties at distance exactly 1, cell edges, shared border
    points, and every way the pair blocks can be cut."""

    @SETTINGS
    @given(
        cells=st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=150
        ),
        pitch=st.sampled_from([1.0, 0.5]),
        min_samples=MIN_SAMPLES,
        budget=BUDGETS,
    )
    def test_lattices(self, cells, pitch, min_samples, budget):
        """Integer and half-integer lattices: neighbours at distance exactly
        1, points on cell edges, negative coordinates, repeated points."""
        pts = np.array(cells, dtype=float).reshape(-1, 2) * pitch
        same_labels(pts[:, 0], pts[:, 1], min_samples, budget)

    @SETTINGS
    @given(
        n=st.integers(1, 60),
        copies=st.integers(1, 6),
        spread=st.floats(0.3, 4.0),
        seed=st.integers(0, 2**31),
        min_samples=MIN_SAMPLES,
        budget=BUDGETS,
    )
    def test_duplicated_points(self, n, copies, spread, seed, min_samples, budget):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, spread, size=(n, 2))
        pts = rng.permutation(np.tile(pts, (copies, 1)))
        same_labels(pts[:, 0], pts[:, 1], min_samples, budget)

    @SETTINGS
    @given(
        xs=st.lists(st.integers(-400, 400), max_size=150),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**31),
        min_samples=MIN_SAMPLES,
        budget=BUDGETS,
    )
    def test_thin_strips(self, xs, rows, seed, min_samples, budget):
        """One to three cell rows, hundreds of columns: every candidate
        range is short and most of the column +1 ranges are empty."""
        rng = np.random.default_rng(seed)
        x = np.array(xs, dtype=float) / 4.0
        same_labels(x, rng.integers(0, rows, x.size) * 0.75, min_samples, budget)

    @pytest.mark.parametrize("budget", [1, 7, 10**12])
    @pytest.mark.parametrize("right_first", [False, True])
    def test_shared_border_point_takes_the_lower_id(self, right_first, budget):
        """A non-core point within reach of two clusters' core points joins
        whichever the sweep opened first: the one with the lowest core index."""
        left, right = [-1.0, -1.5, -2.0, -2.5], [1.0, 1.5, 2.0, 2.5]
        x = np.array((right + left if right_first else left + right) + [0.0])
        labels = same_labels(x, np.zeros(x.size), 4, budget)
        assert labels[:4].tolist() == [0] * 4 and labels[4:8].tolist() == [1] * 4
        assert labels[8] == 0
        # The same point listed first is visited first and still joins it.
        labels = same_labels(np.roll(x, 1), np.zeros(x.size), 4, budget)
        assert labels[0] == 0

    def test_non_core_neighbours_do_not_recruit(self):
        """A border point is not a core point: what only it reaches is noise."""
        x = np.array([0.0, 0.25, 0.5, 0.75, 1.6, 2.5])
        labels = same_labels(x, np.zeros(x.size), 4)
        assert labels.tolist() == [0, 0, 0, 0, 0, NOISE]

    @pytest.mark.parametrize("min_samples", [1, 2, 3, 4, 7])
    def test_degenerate_inputs(self, min_samples):
        lone = same_labels([3.5], [-2.0], min_samples)
        assert lone.tolist() == ([0] if min_samples == 1 else [NOISE])
        far = np.arange(40.0) * 1.5
        scattered = same_labels(far, -far, min_samples)
        assert (scattered == NOISE).all() or min_samples == 1
        side = np.arange(15) * 0.5
        gx, gy = np.meshgrid(side, side)
        giant = same_labels(gx.ravel(), gy.ravel(), min_samples)
        assert (giant == 0).all()

    @pytest.mark.parametrize("budget", [1, 7, 10**12])
    def test_fit_on_a_generated_observation(self, budget):
        """Through ``fit``: merged labels and summarised clusters equal what
        the sweep's labels give, and the block budget changes neither."""
        obs = survey_observation(obs_length_s=15.0)
        db, batch, steps = scaled(obs)
        with mock.patch.object(clustering, "_PAIR_CANDIDATES", budget):
            labels, clusters = db.fit_batch(batch, steps)
        swept = _reference_dbscan(
            db, batch.time_s / db.eps_time_s, steps / db.eps_dm_steps
        )
        swept = db._merge_artifact_clusters(swept, batch.time_s, batch.dm)
        assert np.array_equal(labels, swept)
        assert clusters == db._summarize(swept, batch.time_s, batch.dm, batch.snr)
        assert len(clusters) > 20 and (labels == NOISE).any()


class TestColumnarDBSCANGuards:
    """What the benchmark would catch late, caught without a clock."""

    def test_memory_is_bounded_by_the_block_not_the_pairs(self, monkeypatch):
        x, y = clumps(200_000, 2.0, seed=7)
        db = SinglePulseDBSCAN()
        close_pairs, n_pairs = clustering._close_pairs, 0

        def counted(*args):
            nonlocal n_pairs
            for a, b in close_pairs(*args):
                n_pairs += a.size
                yield a, b

        monkeypatch.setattr(clustering, "_close_pairs", counted)
        tracemalloc.start()
        try:
            labels = db._dbscan(x, y)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cap = 64 * 2**20
        assert peak < cap, f"peak {peak / 2**20:.1f} MB"
        # Both passes saw every close pair once; kept as two int64 columns
        # they alone would be several times the cap.
        assert (n_pairs // 2) * 16 > 4 * cap
        assert labels.max() + 1 >= 60
        same_labels(x[::40], y[::40])

    def test_clustering_does_not_import_scipy(self):
        """scipy.sparse.csgraph costs +35 MB RSS and 0.26 s to import: either
        would fail the benchmark's ``peak_rss_mb`` or ``setup_s`` bound."""
        code = (
            "import sys, numpy as np, repro.astro.clustering as c\n"
            "t = np.arange(50.0) / 100\n"
            "labels, clusters = c.SinglePulseDBSCAN().fit(t, t, t, t)\n"
            "assert len(clusters) == 1\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"

    def test_pair_blocks_are_bounded_and_no_sweep_runs(self, monkeypatch):
        """Two passes over ⌈candidates / budget⌉ blocks and the border
        query: a per-point or per-cell call anywhere breaks the bound."""
        obs = survey_observation()
        db, batch, steps = scaled(obs)
        assert 4500 < len(batch) < 6000
        budget = 1 << 8
        close_pairs, blocks = clustering._close_pairs, []

        def counted(*args):
            n = 0
            for pair in close_pairs(*args):
                n += 1
                yield pair
            blocks.append(n)

        def no_sweep(*_args):
            raise AssertionError("fit ran the sweep")

        monkeypatch.setattr(clustering, "_close_pairs", counted)
        monkeypatch.setattr(clustering, "_PAIR_CANDIDATES", budget)
        monkeypatch.setattr(SinglePulseDBSCAN, "_expand", no_sweep, raising=False)
        labels, _clusters = db.fit_batch(batch, steps)
        assert np.array_equal(labels, obs.labels)

        # Candidates: unordered pairs of points in the same or touching cells.
        cx = np.floor(batch.time_s / db.eps_time_s).astype(int)
        cy = np.floor(steps / db.eps_dm_steps).astype(int)
        cells = Counter(zip(cx.tolist(), cy.tolist()))
        candidates = sum(
            m * (m - 1) // 2
            + m * sum(
                cells.get((i + di, j + dj), 0)
                for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1))
            )
            for (i, j), m in cells.items()
        )
        per_pass = math.ceil(candidates / budget)
        assert per_pass > 50
        assert len(blocks) == 3 and blocks[0] == blocks[1] == per_pass
        # The border query is a full 3×3, but for the non-core points only.
        assert (labels == NOISE).any() and blocks[2] <= per_pass


class TestClusterPersistence:
    def test_csv_roundtrip_preserves_size(self):
        """Satellite bug: ``from_csv_row`` used to drop the size field."""
        c = Cluster(
            cluster_id=3, indices=[4, 9, 11], dm_lo=10.0, dm_hi=12.0,
            t_lo=1.0, t_hi=1.5, max_snr=9.5,
        )
        assert c.size == 3
        back = Cluster.from_csv_row(c.to_csv_row())
        assert back.indices == []
        assert back.n_spes == 3
        assert back.size == 3
        # And a second round trip keeps it.
        assert Cluster.from_csv_row(back.to_csv_row()).size == 3
