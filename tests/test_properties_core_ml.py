"""Property-based tests: core algorithm and ML invariants."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings
from oracles.record_path import find_single_pulses_recursive

from repro.astro.dispersion import dispersion_delay_s, smearing_snr_factor
from repro.core.bins import dynamic_bin_size
from repro.core.regression import bin_edges
from repro.core.search import SearchParams, find_single_pulses
from repro.ml._split import entropy_from_counts, gini_from_counts
from repro.ml.feature_selection import rank_symmetrical_uncertainty
from repro.ml.metrics import BinaryScores
from repro.ml.smote import smote
from repro.ml.validation import stratified_kfold

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def profile_strategy(min_size=2, max_size=150):
    return st.lists(
        st.tuples(
            st.floats(0.0, 500.0, allow_nan=False),
            st.floats(5.0, 40.0, allow_nan=False),
        ),
        min_size=min_size,
        max_size=max_size,
    )


class TestSearchProperties:
    @SETTINGS
    @given(points=profile_strategy(), threshold=st.floats(0.05, 2.0))
    def test_recursive_equals_iterative(self, points, threshold):
        dms = np.sort(np.array([p[0] for p in points]))
        snrs = np.array([p[1] for p in points])
        params = SearchParams(slope_threshold=threshold)
        a, _ = find_single_pulses(dms, snrs, params)
        b, _ = find_single_pulses_recursive(dms, snrs, params)
        assert a == b

    @SETTINGS
    @given(points=profile_strategy())
    def test_spans_are_well_formed(self, points):
        dms = np.sort(np.array([p[0] for p in points]))
        snrs = np.array([p[1] for p in points])
        spans, edges = find_single_pulses(dms, snrs)
        for span in spans:
            assert 0 <= span.start_bin <= span.peak_bin <= span.end_bin < max(len(edges), 1)

    @SETTINGS
    @given(points=profile_strategy(), shift=st.floats(-100.0, 100.0))
    def test_snr_shift_invariance(self, points, shift):
        """Adding a constant to all SNRs changes no slopes → same pulses."""
        dms = np.sort(np.array([p[0] for p in points]))
        snrs = np.array([p[1] for p in points])
        a, _ = find_single_pulses(dms, snrs)
        b, _ = find_single_pulses(dms, snrs + shift)
        assert a == b

    @SETTINGS
    @given(n=st.integers(0, 100_000), w=st.floats(0.1, 3.0))
    def test_bin_size_positive_and_bounded(self, n, w):
        b = dynamic_bin_size(n, w)
        assert 1 <= b
        assert b <= max(1, int(w * np.sqrt(max(n, 1))))

    @SETTINGS
    @given(n=st.integers(2, 500), b=st.integers(1, 60))
    def test_bin_edges_partition_points(self, n, b):
        edges = bin_edges(n, b)
        covered = set()
        for s, e in edges:
            assert 0 <= s < e <= n
            covered.update(range(s, e))
        assert covered == set(range(n))


class TestAstroProperties:
    @SETTINGS
    @given(dm=st.floats(0.0, 5000.0), f1=st.floats(100.0, 1000.0),
           df=st.floats(1.0, 1000.0))
    def test_delay_nonnegative_and_monotone_in_dm(self, dm, f1, df):
        d = dispersion_delay_s(dm, f1, f1 + df)
        assert d >= 0.0
        assert dispersion_delay_s(dm * 2, f1, f1 + df) >= d

    @SETTINGS
    @given(delta=st.floats(0.0, 1000.0), width=st.floats(0.1, 100.0))
    def test_smearing_factor_in_unit_interval(self, delta, width):
        f = smearing_snr_factor(delta, width, 350.0, 100.0)
        assert 0.0 <= f <= 1.0 + 1e-12


class TestMlProperties:
    @SETTINGS
    @given(counts=st.lists(st.integers(0, 1000), min_size=1, max_size=8))
    def test_entropy_gini_bounds(self, counts):
        counts = np.array(counts)
        h = entropy_from_counts(counts)
        g = gini_from_counts(counts)
        k = max((counts > 0).sum(), 1)
        assert 0.0 <= h <= np.log2(k) + 1e-9
        assert 0.0 <= g <= 1.0 - 1.0 / k + 1e-9

    @SETTINGS
    @given(tp=st.integers(0, 100), tn=st.integers(0, 100),
           fp=st.integers(0, 100), fn=st.integers(0, 100))
    def test_f_measure_between_min_and_max_of_p_r(self, tp, tn, fp, fn):
        s = BinaryScores(tp, tn, fp, fn)
        p, r, f = s.precision, s.recall, s.f_measure
        assert 0.0 <= f <= 1.0
        assert min(p, r) - 1e-9 <= f <= max(p, r) + 1e-9

    @SETTINGS
    @given(
        labels=st.lists(st.integers(0, 3), min_size=12, max_size=120),
        n_folds=st.integers(2, 4),
    )
    def test_kfold_partition_properties(self, labels, n_folds):
        y = np.array(labels)
        if y.size < n_folds:
            return
        folds = stratified_kfold(y, n_folds, seed=0)
        all_test = np.concatenate([t for _tr, t in folds])
        assert sorted(all_test.tolist()) == list(range(y.size))
        for train, test in folds:
            assert set(train.tolist()).isdisjoint(test.tolist())

    @SETTINGS
    @given(
        n_seed=st.integers(2, 12),
        n_synth=st.integers(1, 30),
        dims=st.integers(1, 5),
    )
    def test_smote_output_within_bounding_box(self, n_seed, n_synth, dims):
        """Convex combinations never leave the minority bounding box."""
        gen = np.random.default_rng(n_seed * 100 + n_synth)
        X = gen.normal(size=(n_seed, dims))
        synth = smote(X, n_synth, rng=gen)
        lo, hi = X.min(axis=0), X.max(axis=0)
        assert np.all(synth >= lo - 1e-9)
        assert np.all(synth <= hi + 1e-9)

    @SETTINGS
    @given(seed=st.integers(0, 1000))
    def test_su_symmetric_bounds_on_random_data(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(60, 3))
        y = gen.integers(0, 2, 60)
        su = rank_symmetrical_uncertainty(X, y)
        assert np.all((su >= -1e-9) & (su <= 1.0 + 1e-9))
