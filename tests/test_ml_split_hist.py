"""Unit tests for exact and histogram split finding."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.ml_hist import _reference_best_hist_split, _reference_fit_binned

from repro.ml._hist import BinnedMatrix, best_hist_split, bin_matrix, split_nodes
from repro.ml._split import best_split, entropy_from_counts, gini_from_counts
from repro.ml.forest import RandomForest

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestImpurities:
    def test_entropy_bounds(self):
        assert entropy_from_counts(np.array([10, 0])) == 0.0
        assert entropy_from_counts(np.array([5, 5])) == pytest.approx(1.0)
        assert entropy_from_counts(np.array([1, 1, 1, 1])) == pytest.approx(2.0)

    def test_gini_bounds(self):
        assert gini_from_counts(np.array([10, 0])) == 0.0
        assert gini_from_counts(np.array([5, 5])) == pytest.approx(0.5)

    def test_empty_counts(self):
        assert entropy_from_counts(np.array([0, 0])) == 0.0
        assert gini_from_counts(np.array([])) == 0.0


class TestBestSplit:
    def test_finds_perfect_threshold(self):
        X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        split = best_split(X, y, 2, np.array([0]), criterion="gini")
        assert split is not None
        assert 3.0 < split.threshold < 10.0
        assert split.n_left == 3 and split.n_right == 3

    def test_pure_node_returns_none(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        y = np.zeros(10, dtype=int)
        assert best_split(X, y, 1, np.array([0, 1])) is None

    def test_constant_feature_skipped(self):
        X = np.column_stack([np.ones(6), np.array([1, 2, 3, 10, 11, 12.0])])
        y = np.array([0, 0, 0, 1, 1, 1])
        split = best_split(X, y, 2, np.array([0, 1]))
        assert split is not None and split.feature == 1

    def test_min_leaf_respected(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 1, 1, 1])
        split = best_split(X, y, 2, np.array([0]), min_leaf=2)
        assert split is None or (split.n_left >= 2 and split.n_right >= 2)

    def test_gain_ratio_mode(self):
        X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        split = best_split(X, y, 2, np.array([0]), criterion="gain_ratio")
        assert split is not None
        assert split.score == pytest.approx(1.0)  # IG=1 bit, split info=1 bit

    def test_picks_most_informative_feature(self):
        rng = np.random.default_rng(1)
        n = 200
        informative = np.concatenate([rng.normal(0, 1, n // 2), rng.normal(6, 1, n // 2)])
        noise = rng.normal(0, 1, n)
        X = np.column_stack([noise, informative])
        y = np.repeat([0, 1], n // 2)
        split = best_split(X, y, 2, np.array([0, 1]))
        assert split.feature == 1


class TestBinMatrix:
    def test_codes_respect_edges(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        bm = bin_matrix(X, 16)
        for j in range(3):
            edges = bm.edges[j]
            for b in range(len(edges)):
                left = X[bm.codes[:, j] <= b, j]
                right = X[bm.codes[:, j] > b, j]
                # Training-time routing must agree with x <= edges[b].
                assert np.all(left <= edges[b])
                assert np.all(right > edges[b])

    def test_supervised_bins_include_class_boundary(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 10, 600)
        y = (x > 4.2).astype(int)
        X = x[:, None]
        bm = bin_matrix(X, 8, y)
        # Some edge must sit within the data gap around the true boundary.
        assert np.any(np.abs(bm.edges[0] - 4.2) < 0.15)

    def test_invalid_bin_count(self):
        with pytest.raises(ValueError):
            bin_matrix(np.zeros((3, 1)), 1)

    def test_constant_column(self):
        bm = bin_matrix(np.ones((10, 1)), 8)
        assert bm.edges[0].size == 0
        assert np.all(bm.codes == 0)


class TestBestHistSplit:
    def test_finds_separating_split(self):
        X = np.concatenate([np.linspace(0, 1, 50), np.linspace(5, 6, 50)])[:, None]
        y = np.repeat([0, 1], 50)
        bm = bin_matrix(X, 16)
        split = best_hist_split(bm, np.arange(100), y, 2, np.array([0]))
        assert split is not None
        assert 1.0 <= split.threshold <= 5.0
        assert split.score == pytest.approx(0.5)  # full gini decrease

    def test_subset_indices_only(self):
        X = np.concatenate([np.linspace(0, 1, 50), np.linspace(5, 6, 50)])[:, None]
        y = np.repeat([0, 1], 50)
        bm = bin_matrix(X, 16)
        idx = np.arange(0, 100, 2)
        split = best_hist_split(bm, idx, y, 2, np.array([0]))
        assert split is not None
        assert split.n_left + split.n_right == idx.size

    def test_pure_subset_returns_none(self):
        X = np.linspace(0, 1, 20)[:, None]
        y = np.zeros(20, dtype=int)
        bm = bin_matrix(X, 8)
        assert best_hist_split(bm, np.arange(20), y, 1, np.array([0])) is None

    def test_min_leaf(self):
        X = np.linspace(0, 1, 10)[:, None]
        y = np.array([0] * 9 + [1])
        bm = bin_matrix(X, 8)
        split = best_hist_split(bm, np.arange(10), y, 2, np.array([0]), min_leaf=3)
        assert split is None or (split.n_left >= 3 and split.n_right >= 3)

    def test_agrees_with_exact_split_on_separable_data(self):
        rng = np.random.default_rng(3)
        X = np.concatenate([rng.normal(0, 1, 100), rng.normal(8, 1, 100)])[:, None]
        y = np.repeat([0, 1], 100)
        bm = bin_matrix(X, 64)
        hist = best_hist_split(bm, np.arange(200), y, 2, np.array([0]))
        exact = best_split(X, y, 2, np.array([0]))
        # Same partition sizes: both find the clean boundary.
        assert hist.n_left == exact.n_left


def random_binned(rng, n_rows, bins_per_feature):
    """A BinnedMatrix with the given bin counts (1 = a constant column)."""
    codes = np.column_stack([rng.integers(0, b, n_rows) for b in bins_per_feature])
    edges = [np.sort(rng.normal(size=b - 1)) for b in bins_per_feature]
    return BinnedMatrix(codes.astype(np.uint8), edges)


def count_numpy_calls(monkeypatch, *names):
    calls = Counter()
    for name in names:
        real = getattr(np, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return calls


class TestOnePassEqualsPerFeatureLoop:
    """``best_hist_split`` scores all candidates at once; the per-feature
    loop it replaced (``oracles.ml_hist``) is the law, field for field —
    ``HistSplit`` equality is exact, scores included."""

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_classes=st.integers(1, 9),
        classes_used=st.integers(1, 9),
        min_leaf=st.integers(1, 5),
        n=st.one_of(st.integers(2, 48), st.integers(49, 60), st.integers(61, 400)),
        bins=st.lists(st.integers(1, 24), min_size=1, max_size=8),
        duplicate=st.booleans(),
        all_features=st.booleans(),
    )
    def test_random_nodes(self, seed, n_classes, classes_used, min_leaf, n, bins,
                          duplicate, all_features):
        rng = np.random.default_rng(seed)
        n_rows = n + int(rng.integers(0, 50))
        bm = random_binned(rng, n_rows, bins)
        d = len(bins)
        if duplicate and d > 1:
            # The same column twice: equal gains, so order alone decides.
            src, dst = rng.choice(d, size=2, replace=False)
            codes = bm.codes.copy()
            codes[:, dst] = codes[:, src]
            edges = list(bm.edges)
            edges[dst] = edges[src]
            bm = BinnedMatrix(codes, edges)
        # Labels from a subset of the classes (some absent from every node),
        # loosely tied to one feature so that real gains and exact ties both occur.
        used = rng.choice(n_classes, size=min(classes_used, n_classes), replace=False)
        y = used[(bm.codes[:, int(rng.integers(d))] + rng.integers(0, 2, n_rows)) % used.size]
        idx = rng.integers(0, n_rows, size=n)  # a bootstrap: repeats allowed
        feats = np.arange(d) if all_features else rng.permutation(d)[: int(rng.integers(1, d + 1))]
        got = best_hist_split(bm, idx, y, n_classes, feats, min_leaf)
        assert got == _reference_best_hist_split(bm, idx, y, n_classes, feats, min_leaf)
        if got is not None:
            assert min(got.n_left, got.n_right) >= min_leaf
            went_left = int((bm.codes[idx, got.feature] <= got.bin_index).sum())
            assert (went_left, n - went_left) == (got.n_left, got.n_right)

    @pytest.mark.parametrize("n", [40, 200])
    def test_first_candidate_wins_a_tie(self, n):
        rng = np.random.default_rng(5)
        bm = random_binned(rng, n, [6, 9, 6])
        codes = bm.codes.copy()
        codes[:, 2] = codes[:, 0]
        bm = BinnedMatrix(codes, [bm.edges[0], bm.edges[1], bm.edges[0]])
        y = (codes[:, 0] > 2).astype(int)
        idx = np.arange(n)
        for feats, winner in (([2, 1, 0], 2), ([0, 1, 2], 0), ([1, 2, 0], 2)):
            split = best_hist_split(bm, idx, y, 2, np.array(feats))
            assert split == _reference_best_hist_split(bm, idx, y, 2, np.array(feats))
            assert split.feature == winner and split.bin_index == 2
            assert split.score == pytest.approx(2 * y.mean() * (1 - y.mean()))

    @pytest.mark.parametrize("n", [30, 120])
    def test_constant_candidates_yield_no_split_until_the_retry(self, n):
        rng = np.random.default_rng(6)
        bm = random_binned(rng, n, [1, 1, 12, 1])
        assert [e.size for e in bm.edges] == [0, 0, 11, 0]
        y = (bm.codes[:, 2] > 5).astype(int)
        idx = np.arange(n)
        assert best_hist_split(bm, idx, y, 2, np.array([0, 3, 1])) is None
        retry = best_hist_split(bm, idx, y, 2, np.arange(4))
        assert retry == _reference_best_hist_split(bm, idx, y, 2, np.arange(4))
        assert retry.feature == 2 and retry.bin_index == 5 and retry.n_left + retry.n_right == n

    def test_a_forest_grown_by_the_oracle_is_the_same_forest(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([
            rng.normal(size=600), rng.integers(0, 4, 600).astype(float),
            rng.normal(size=600), np.ones(600), rng.integers(0, 30, 600).astype(float),
        ])
        X = np.column_stack([X, X[:, 0]])  # a duplicated column: ties at every node
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 4] > 14).astype(int)
        noisy = rng.random(600) < 0.2  # label noise: deep trees, small nodes
        y[noisy] = rng.integers(0, 4, int(noisy.sum()))
        forest = RandomForest(n_trees=5, seed=3).fit(X, y)
        live = forest_structure(forest)
        assert live == oracle_structure(forest, X, y)
        assert len(live) > 5 * 100 and {0, 5} <= {node[0] for node in live}


def walk(node, out):
    """Preorder (feature, threshold, class counts, prediction) of a subtree."""
    out.append((node.feature, node.threshold, node.counts.tolist(), node.prediction))
    if not node.is_leaf:
        walk(node.left, out)
        walk(node.right, out)
    return out


def forest_structure(forest):
    return [row for tree in forest._trees for row in walk(tree.root, [])]


def oracle_structure(forest, X, y):
    """The forest the sequential builder grows from ``forest``'s settings."""
    roots = _reference_fit_binned(forest, bin_matrix(X, forest.n_bins, y), y)
    return [row for root in roots for row in walk(root, [])]


class TestLockstepForestEqualsSequentialForest:
    """The forest grows its trees side by side, one batched search per wave;
    the tree-at-a-time recursion over the per-feature search
    (``oracles.ml_hist._reference_fit_binned``) is the law, node for node."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trees=st.sampled_from([1, 2, 20]),
        n_classes=st.integers(1, 9),
        n=st.one_of(st.integers(2, 48), st.integers(49, 300)),
        d=st.integers(1, 6),
        min_leaf=st.integers(1, 5),
        max_depth=st.one_of(st.none(), st.integers(1, 4)),
        constant=st.booleans(),
        duplicate=st.booleans(),
    )
    def test_random_forests(self, seed, n_trees, n_classes, n, d, min_leaf, max_depth,
                            constant, duplicate):
        rng = np.random.default_rng(seed)
        # Real and integer-valued columns (tied values), labels loosely tied
        # to one column so that trees grow deep and gains tie.
        X = np.column_stack([
            rng.normal(size=n) if j % 2 else rng.integers(0, 6, n).astype(float)
            for j in range(d)
        ])
        if constant:
            X[:, 0] = 1.0  # no split on it: drawn alone, only the retry can split
        if duplicate and d > 1:
            X[:, d - 1] = X[:, 0]
        y = rng.integers(0, n_classes, n)
        signal = rng.random(n) < 0.5
        y[signal] = (X[signal, d - 1] > np.median(X[:, d - 1])).astype(int) % n_classes
        forest = RandomForest(n_trees=n_trees, min_leaf=min_leaf, max_depth=max_depth,
                              seed=int(rng.integers(0, 1000))).fit(X, y)
        assert forest_structure(forest) == oracle_structure(forest, X, y)

    def test_nodes_with_eight_or_more_classes(self):
        """Rows of 8 or more present classes are summed by NumPy's pairwise
        order, fewer by a left-to-right pass; both occur in one wave here."""
        rng = np.random.default_rng(11)
        X = np.column_stack([rng.normal(size=1500), rng.integers(0, 9, 1500).astype(float),
                             rng.normal(size=1500)])
        y = (X[:, 1].astype(int) + rng.integers(0, 3, 1500)) % 9
        forest = RandomForest(n_trees=20, max_depth=6, seed=5).fit(X, y)
        live = forest_structure(forest)
        assert live == oracle_structure(forest, X, y)
        present = [sum(1 for v in counts if v) for _f, _t, counts, _p in live]
        assert sum(p >= 8 for p in present) > 20 and min(present) == 1  # not just roots


class TestOneHistogramPerNode:
    def test_numpy_calls_do_not_grow_with_candidate_features(self, monkeypatch):
        """No timing: one feature or six, a histogram-path node is one
        histogram ``bincount`` (plus the class count) and one ``cumsum``."""
        rng = np.random.default_rng(8)
        bm = random_binned(rng, 500, [20, 5, 64, 1, 33, 12])
        y = rng.integers(0, 4, 500)
        idx = rng.integers(0, 500, 300)
        calls = count_numpy_calls(monkeypatch, "bincount", "cumsum")
        per_k = {}
        for k in (1, 6):
            calls.clear()
            assert best_hist_split(bm, idx, y, 4, np.arange(k)) is not None
            per_k[k] = dict(calls)
        assert per_k[1] == per_k[6] == {"bincount": 2, "cumsum": 1}

    def test_numpy_calls_do_not_grow_with_the_nodes_of_a_wave(self, monkeypatch):
        """No timing: one node or twenty (one chunk), a wave's batched search
        is one histogram ``bincount`` and one ``cumsum``."""
        rng = np.random.default_rng(9)
        bm = random_binned(rng, 500, [20, 5, 64, 1, 33, 12])
        y = rng.integers(0, 4, 500)
        idxs = [rng.integers(0, 500, int(rng.integers(10, 120))) for _ in range(20)]
        feats = np.array([rng.permutation(6)[:4] for _ in range(20)])
        counts = np.array([np.bincount(y[i], minlength=4) for i in idxs])
        calls = count_numpy_calls(monkeypatch, "bincount", "cumsum")
        per_m = {}
        for m in (1, 20):
            calls.clear()
            found = split_nodes(bm, y, idxs[:m], feats[:m], counts[:m])
            assert found[0] is not None and len(found) == m
            per_m[m] = dict(calls)
        assert per_m[1] == per_m[20] == {"bincount": 1, "cumsum": 1}
