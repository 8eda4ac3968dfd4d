"""Unit tests for SMOTE, MDL discretization and feature selection."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.ml_hist import _reference_best_cut, _reference_mdl_cut_points

from repro.ml import discretize
from repro.ml._hist import bin_matrix
from repro.ml._split import entropy_from_counts
from repro.ml.discretize import discretize_column, mdl_cut_points, mdl_cuts, mdl_discretize
from repro.ml.feature_selection import (
    FS_METHODS,
    rank_correlation,
    rank_features,
    rank_gain_ratio,
    rank_info_gain,
    rank_oner,
    rank_symmetrical_uncertainty,
    select_top_k,
)
from repro.ml.smote import balance_with_smote, smote


@pytest.fixture
def informative_data():
    """Feature 0 determines the class; features 1-3 are noise."""
    rng = np.random.default_rng(0)
    n = 400
    x0 = np.concatenate([rng.uniform(0, 1, n // 2), rng.uniform(2, 3, n // 2)])
    X = np.column_stack([x0, rng.normal(0, 1, n), rng.normal(0, 1, n), rng.normal(0, 1, n)])
    y = np.repeat([0, 1], n // 2)
    return X, y


class TestSmote:
    def test_generates_requested_count(self):
        X = np.random.default_rng(0).normal(size=(20, 4))
        synth = smote(X, 35, rng=np.random.default_rng(1))
        assert synth.shape == (35, 4)

    def test_zero_synthetic(self):
        assert smote(np.zeros((5, 2)), 0).shape == (0, 2)

    def test_synthetics_on_segments(self):
        """Every synthetic point lies between two real minority points —
        SMOTE's defining convexity property."""
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 3))
        synth = smote(X, 50, k=5, rng=np.random.default_rng(3))
        for s in synth:
            # s = a + g(b - a) for some pair (a, b) and g in [0,1]: check the
            # best pair reconstructs it.
            found = False
            for i in range(15):
                for j in range(15):
                    if i == j:
                        continue
                    d = X[j] - X[i]
                    denom = float(d @ d)
                    if denom == 0:
                        continue
                    g = float((s - X[i]) @ d) / denom
                    if -1e-9 <= g <= 1 + 1e-9 and np.allclose(X[i] + g * d, s, atol=1e-8):
                        found = True
                        break
                if found:
                    break
            assert found

    def test_single_seed_jitters(self):
        X = np.array([[1.0, 2.0]])
        synth = smote(X, 5, rng=np.random.default_rng(4))
        assert synth.shape == (5, 2)
        assert np.allclose(synth, X[0], atol=1e-4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            smote(np.zeros((3, 2)), -1)


class TestBalanceWithSmote:
    def test_binary_balances_to_majority(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(110, 3))
        y = np.array([0] * 100 + [1] * 10)
        Xb, yb = balance_with_smote(X, y)
        counts = np.bincount(yb)
        assert counts[0] == counts[1] == 100

    def test_multiclass_equalizes_positive_subclasses(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(160, 3))
        y = np.array([0] * 100 + [1] * 40 + [2] * 15 + [3] * 5)
        Xb, yb = balance_with_smote(X, y, non_pulsar_class=0)
        counts = np.bincount(yb)
        assert counts[0] == 100  # the majority is untouched
        assert counts[1] == counts[2] == counts[3] == 40

    def test_multiclass_inflation_much_smaller_than_binary(self):
        """The RQ5 mechanism: balanced binary sets are far larger."""
        rng = np.random.default_rng(2)
        X = rng.normal(size=(1050, 3))
        y_bin = np.array([0] * 1000 + [1] * 50)
        y_multi = np.array([0] * 1000 + [1] * 20 + [2] * 20 + [3] * 10)
        Xb, _ = balance_with_smote(X, y_bin)
        Xm, _ = balance_with_smote(X, y_multi, non_pulsar_class=0)
        assert Xb.shape[0] == 2000
        assert Xm.shape[0] < 1200

    def test_target_ratio(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(110, 2))
        y = np.array([0] * 100 + [1] * 10)
        _Xb, yb = balance_with_smote(X, y, target_ratio=0.5)
        assert np.bincount(yb)[1] == 50

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            balance_with_smote(np.zeros((2, 1)), np.array([0, 1]), target_ratio=0.0)

    def test_originals_preserved(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        y = np.array([0] * 25 + [1] * 5)
        Xb, yb = balance_with_smote(X, y)
        np.testing.assert_array_equal(Xb[:30], X)
        np.testing.assert_array_equal(yb[:30], y)


class TestMdlDiscretize:
    def test_finds_clean_boundary(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0, 1, 200), rng.uniform(2, 3, 200)])
        y = np.repeat([0, 1], 200)
        cuts = mdl_cut_points(x, y, 2)
        assert len(cuts) >= 1
        assert any(1.0 <= c <= 2.0 for c in cuts)

    def test_no_cuts_for_uninformative_feature(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 300)
        y = rng.integers(0, 2, 300)
        assert mdl_cut_points(x, y, 2) == []

    def test_cuts_sorted(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.uniform(i * 2, i * 2 + 1, 100) for i in range(3)])
        y = np.repeat([0, 1, 2], 100)
        cuts = mdl_cut_points(x, y, 3)
        assert cuts == sorted(cuts)
        assert len(cuts) >= 2

    def test_discretize_column_bins(self):
        x = np.array([0.5, 1.5, 2.5, 3.5])
        assert list(discretize_column(x, [1.0, 3.0])) == [0, 1, 1, 2]

    def test_discretize_column_no_cuts(self):
        assert np.all(discretize_column(np.arange(5.0), []) == 0)

    def test_mdl_discretize_matrix(self, informative_data):
        X, y = informative_data
        binned, cuts = mdl_discretize(X, y)
        assert binned.shape == X.shape
        assert len(cuts[0]) >= 1  # informative column gets cut
        assert all(len(c) == 0 for c in cuts[1:])  # noise columns collapse

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mdl_cut_points(np.zeros(3), np.zeros(4, dtype=int), 1)


class TestPrefixTableEqualsPerSegmentSearch:
    """``mdl_cuts`` searches every column of a matrix at once, level by
    level over boundary points, off one class-count prefix table; the
    per-segment recursion it replaced (``oracles.ml_hist``) is the law, cut
    for cut and bit for bit, for one column (``mdl_cut_points``) and for a
    whole matrix."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), tiny=st.booleans(), one_class=st.booleans())
    def test_random_columns(self, seed, tiny, one_class):
        # Shapes come from the seeded generator, not from hypothesis, whose
        # taste for minimal draws would leave most columns without a cut.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 6) if tiny else rng.integers(6, 400))
        # Up to 9 classes: a row of 8 or more is summed by NumPy's eight
        # interleaved accumulators, not left to right.
        n_classes = 1 if one_class and rng.random() < 0.3 else int(rng.integers(2, 10))
        max_depth = int(rng.choice([1, 3, 8, 8]))
        # Few distinct values = heavy ties; otherwise a continuous column.
        tied = rng.random() < 0.5
        x = rng.integers(0, rng.integers(1, 13), n) / 3.0 if tied else rng.normal(size=n)
        y = _stepped_labels(rng, x, n_classes)
        if n == 0:
            with pytest.raises(ValueError, match="empty"):
                mdl_cut_points(x, y, n_classes, max_depth)
            return
        got = mdl_cut_points(x, y, n_classes, max_depth)
        assert got == _reference_mdl_cut_points(x, y, n_classes, max_depth)
        assert (n >= 4 and n_classes > 1) or got == []

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matrix_equals_the_oracle_column_by_column(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4) if rng.random() < 0.15 else rng.integers(4, 300))
        n_classes = 1 if rng.random() < 0.15 else int(rng.integers(2, 10))
        max_depth = int(rng.choice([1, 3, 8, 8]))
        all_tied = rng.random() < 0.2
        columns: list[np.ndarray] = []
        for _ in range(int(rng.integers(1, 7))):
            kind = int(rng.integers(0, 4))
            if kind == 0 and columns:  # a duplicate of an earlier column
                x = columns[int(rng.integers(len(columns)))].copy()
            elif kind == 1:  # constant
                x = np.full(n, rng.normal())
            elif kind == 2 or all_tied:  # few distinct values
                x = rng.integers(0, rng.integers(1, 13), n) / 3.0
            else:
                x = rng.normal(size=n)
            columns.append(x)
        X = np.column_stack(columns)
        y = _stepped_labels(rng, X[:, 0], n_classes)
        # Labels need not reach n_classes - 1 (a subsample's may not).
        got = mdl_cuts(X, y, n_classes, max_depth)
        assert got == [_reference_mdl_cut_points(x, y, n_classes, max_depth) for x in X.T]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batched_entropies_are_entropy_from_counts(self, seed):
        """The MDL test's entropies, one row per segment or child, bit for
        bit — rows of 1 to 9 classes, present or not, in any pattern."""
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(1, 10))
        counts = rng.integers(0, 60, (200, n_classes)) * (rng.random((200, n_classes)) < 0.7)
        counts[counts.sum(axis=1) == 0, 0] = 1
        got = discretize._entropies(counts)
        want = [entropy_from_counts(row) for row in counts]
        assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_child_entropies_are_the_oracles(self, seed):
        """The candidates' weighted child entropies, bit for bit: a cut list
        differs only where a rounding flips a near tie, so the values
        themselves are held to the per-segment search's best cut, over
        twenty segments of one column."""
        rng = np.random.default_rng(seed)
        n, n_classes = int(rng.integers(2, 300)), int(rng.integers(1, 10))
        x = np.sort(rng.integers(0, int(rng.integers(2, 40)), n) / 7.0)
        y = _stepped_labels(rng, x, n_classes)
        onehot = np.eye(n_classes, dtype=np.int64)[y]
        for _ in range(20):
            lo, hi = np.sort(rng.integers(0, n + 1, 2))
            xs, seg = x[lo:hi], onehot[lo:hi]
            change = np.flatnonzero(xs[1:] != xs[:-1])  # cut between p and p + 1
            found = _reference_best_cut(xs, y[lo:hi], n_classes)
            if found is None:
                assert not change.size
                continue
            left = np.cumsum(seg, axis=0)[change]
            weighted = discretize._weighted_child_entropy(left, seg.sum(axis=0) - left, hi - lo)
            assert (change[int(np.argmin(weighted))], weighted.min()) == found

    def test_bin_matrix_takes_the_oracles_cuts_of_its_subsample(self):
        """Over 4,000 rows ``bin_matrix`` discretizes every second one, under
        the full label set's class count (the subsample lacks class 8 here),
        and keeps a column's first 32 MDL cuts."""
        rng = np.random.default_rng(11)
        n = 4_500
        x = rng.uniform(0, 100, n)
        y = rng.integers(0, 8, 100)[x.astype(int)]  # 100 blocks of random classes
        y[1] = 8
        X = np.column_stack([x, rng.normal(size=n), np.round(rng.normal(size=n), 1),
                             np.ones(n)])
        binned = bin_matrix(X, 64, y)
        qs = np.linspace(0.0, 1.0, 65)[1:-1]
        assert len(_reference_mdl_cut_points(x[::2], y[::2], 9)) > 32
        for j, col in enumerate(X.T):
            supervised = _reference_mdl_cut_points(col[::2], y[::2], 9)[:32]
            want = np.unique(np.concatenate([np.quantile(col, qs), supervised]))
            np.testing.assert_array_equal(binned.edges[j], want[want < col.max()])

    def test_one_cumsum_per_matrix_and_numpy_calls_flat_in_columns(self, monkeypatch):
        """No timing: a matrix call's one ``cumsum`` is its prefix table, and
        one column or twenty (each level one run of segments) make the same
        NumPy calls, level for level."""
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(2 * i, 2 * i + 1, 150) for i in range(6)])
        stepped = np.repeat(np.arange(6), 150)
        cumsums = []
        real = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda *a, **k: cumsums.append(1) or real(*a, **k))
        counting = _CountingNumpy()
        monkeypatch.setattr(discretize, "np", counting)
        for y, min_cuts in ((np.zeros(900, dtype=int), 0), (stepped % 2, 5), (stepped, 5)):
            per_d = {}
            for d in (1, 20):
                del cumsums[:]
                counting.calls.clear()
                cuts = mdl_cuts(x[:, None] + np.arange(d), y)
                assert all(len(c) >= min_cuts and (min_cuts or not c) for c in cuts)
                assert len(cumsums) == 1
                per_d[d] = dict(counting.calls)
            assert per_d[1] == per_d[20]


def _stepped_labels(rng, x, n_classes):
    """Classes are steps of x with label noise: several accepted cuts, down
    to none as the noise grows; one class means no cut at all.  Noise is
    drawn per distinct value: a group of tied values is pure or mixed with
    one other class, so that pure and mixed groups sit side by side — what
    decides whether a value change is a boundary point."""
    steps = np.searchsorted(np.sort(rng.normal(size=n_classes - 1)), x)
    values, group = np.unique(x, return_inverse=True)
    rate = rng.choice([0.0, 0.0, 0.2, 0.5], size=values.size)
    other = rng.integers(0, n_classes, values.size)
    noisy = rng.random(x.size) < rate[group]
    return np.where(noisy, other[group], steps)


class _CountingNumpy:
    """Stands in for ``numpy`` in one module and counts the functions it
    looks up there: one lookup per call."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if callable(attr):
            self.calls[name] += 1
        return attr


class TestMdlRefusesBadLabels:
    """Empty input and negative class labels are typed errors, not a NumPy
    reduction error or a label that wraps into the last class."""

    @pytest.mark.parametrize("rank", [mdl_discretize, rank_info_gain, rank_gain_ratio,
                                      rank_symmetrical_uncertainty])
    def test_negative_labels(self, rank, informative_data):
        X, y = informative_data  # y in {0, 1}; feature 0 separates the classes
        with pytest.raises(ValueError, match="non-negative"):
            rank(X, y - 1)

    @pytest.mark.parametrize("rank", [mdl_discretize, rank_info_gain, rank_gain_ratio,
                                      rank_symmetrical_uncertainty])
    def test_empty_input(self, rank):
        with pytest.raises(ValueError, match="empty"):
            rank(np.empty((0, 3)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("n_bins", [8, 250])
    def test_bin_matrix_refuses_empty_input_with_or_without_labels(self, labelled, n_bins):
        """Without labels (or with no supervised-cut budget left) a 0-row
        matrix used to reach ``np.quantile`` and raise an ``IndexError``."""
        y = np.empty(0, dtype=int) if labelled else None
        with pytest.raises(ValueError, match="empty"):
            bin_matrix(np.empty((0, 3)), n_bins, y)


class TestFeatureSelection:
    @pytest.mark.parametrize("method", sorted(FS_METHODS))
    def test_informative_feature_ranked_first(self, method, informative_data):
        X, y = informative_data
        merits = rank_features(method, X, y)
        assert merits.shape == (4,)
        assert int(np.argmax(merits)) == 0

    def test_info_gain_nonnegative(self, informative_data):
        X, y = informative_data
        assert np.all(rank_info_gain(X, y) >= 0)

    def test_su_bounded_unit_interval(self, informative_data):
        X, y = informative_data
        su = rank_symmetrical_uncertainty(X, y)
        assert np.all((su >= 0) & (su <= 1 + 1e-9))

    def test_gain_ratio_zero_for_unbinned(self, informative_data):
        X, y = informative_data
        gr = rank_gain_ratio(X, y)
        assert gr[1] == 0.0  # noise columns have no cuts → zero merit

    def test_entropy_rankers_share_one_mdl_search(self, informative_data, monkeypatch):
        """IG, GR and SU from one discretization equal each ranker's own
        merits byte for byte; three rankers cost three MDL searches, the
        shared call one."""
        from repro.ml import feature_selection

        X, y = informative_data
        calls = Counter()

        def counted(*args):
            calls["mdl"] += 1
            return mdl_discretize(*args)

        monkeypatch.setattr(feature_selection, "mdl_discretize", counted)
        shared = feature_selection.entropy_merits(X, y)
        assert calls["mdl"] == 1
        for name in ("IG", "GR", "SU"):
            assert shared[name].tobytes() == rank_features(name, X, y).tobytes()
        assert calls["mdl"] == 4
        assert shared["IG"][0] > 0 and shared["GR"][1] == 0.0

    def test_correlation_bounded(self, informative_data):
        X, y = informative_data
        cor = rank_correlation(X, y)
        assert np.all((cor >= 0) & (cor <= 1 + 1e-9))

    def test_oner_at_least_majority_rate(self, informative_data):
        X, y = informative_data
        merits = rank_oner(X, y)
        majority = max(np.bincount(y)) / y.size
        assert np.all(merits >= majority - 1e-9)

    def test_unknown_method_rejected(self, informative_data):
        X, y = informative_data
        with pytest.raises(ValueError, match="unknown"):
            rank_features("PCA", X, y)

    def test_select_top_k(self):
        merits = np.array([0.1, 0.9, 0.5, 0.7])
        assert select_top_k(merits, 2) == [1, 3]
        assert select_top_k(merits, 10) == [1, 3, 2, 0]
        with pytest.raises(ValueError):
            select_top_k(merits, 0)

    def test_table4_method_names(self):
        assert set(FS_METHODS) == {"IG", "GR", "SU", "Cor", "1R"}
