"""Unit tests for the six learners (Table 5)."""

import numpy as np
import pytest

from repro.ml import J48, LEARNERS, MLP, PART, SMO, JRip, RandomForest


def accuracy(clf, X, y):
    return float((clf.predict(X) == y).mean())


@pytest.fixture
def binary_blobs():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (80, 3)), rng.normal(4, 1, (80, 3))])
    y = np.repeat([0, 1], 80)
    order = rng.permutation(160)
    return X[order], y[order]


ALL_LEARNERS = [
    ("J48", lambda: J48()),
    ("JRip", lambda: JRip()),
    ("PART", lambda: PART()),
    ("RF", lambda: RandomForest(n_trees=10, seed=0)),
    ("SMO", lambda: SMO(max_passes=2, seed=0)),
    ("MPN", lambda: MLP(epochs=60, seed=0)),
]


class TestCommonContract:
    @pytest.mark.parametrize("name,factory", ALL_LEARNERS)
    def test_learns_separable_binary(self, name, factory, binary_blobs):
        X, y = binary_blobs
        clf = factory().fit(X, y)
        assert accuracy(clf, X, y) > 0.9, name

    @pytest.mark.parametrize("name,factory", ALL_LEARNERS)
    def test_learns_multiclass(self, name, factory, toy_classification):
        X, y = toy_classification
        clf = factory().fit(X, y)
        assert accuracy(clf, X, y) > 0.85, name

    @pytest.mark.parametrize("name,factory", ALL_LEARNERS)
    def test_predict_before_fit_raises(self, name, factory):
        with pytest.raises(RuntimeError):
            factory().predict(np.zeros((2, 3)))

    @pytest.mark.parametrize("name,factory", ALL_LEARNERS)
    def test_rejects_bad_shapes(self, name, factory):
        with pytest.raises(ValueError):
            factory().fit(np.zeros((3, 2)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("name,factory", ALL_LEARNERS)
    def test_rejects_empty(self, name, factory):
        with pytest.raises(ValueError):
            factory().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("name,factory", ALL_LEARNERS)
    def test_single_class_training(self, name, factory):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.zeros(20, dtype=int)
        clf = factory().fit(X, y)
        assert np.all(clf.predict(X) == 0), name

    def test_registry_names_match_paper(self):
        assert set(LEARNERS) == {"MPN", "SMO", "JRip", "J48", "PART", "RF"}


class TestJ48:
    def test_pruning_reduces_leaves(self, binary_blobs):
        X, y = binary_blobs
        rng = np.random.default_rng(1)
        noisy_y = y.copy()
        flip = rng.random(y.size) < 0.15
        noisy_y[flip] = 1 - noisy_y[flip]
        unpruned = J48(prune=False).fit(X, noisy_y)
        pruned = J48(prune=True).fit(X, noisy_y)
        assert pruned.n_leaves <= unpruned.n_leaves

    def test_max_depth_respected(self, toy_classification):
        X, y = toy_classification
        tree = J48(max_depth=2, prune=False).fit(X, y)
        assert tree.depth <= 2

    def test_decision_path_consistent_with_predict(self, binary_blobs):
        X, y = binary_blobs
        tree = J48().fit(X, y)
        for i in range(5):
            path = tree.decision_path(X[i])
            for feat, thr, went_left in path:
                assert (X[i, feat] <= thr) == went_left

    def test_predict_proba_rows_sum_to_one(self, toy_classification):
        X, y = toy_classification
        tree = J48().fit(X, y)
        probs = tree.predict_proba(X[:10])
        assert np.allclose(probs.sum(axis=1), 1.0)


class TestRandomForest:
    def test_more_trees_not_worse(self, toy_classification):
        X, y = toy_classification
        small = RandomForest(n_trees=1, seed=0).fit(X, y)
        big = RandomForest(n_trees=25, seed=0).fit(X, y)
        assert accuracy(big, X, y) >= accuracy(small, X, y) - 0.05

    def test_deterministic_given_seed(self, binary_blobs):
        X, y = binary_blobs
        a = RandomForest(n_trees=5, seed=7).fit(X, y).predict(X)
        b = RandomForest(n_trees=5, seed=7).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_predict_proba_normalized(self, toy_classification):
        X, y = toy_classification
        rf = RandomForest(n_trees=9, seed=0).fit(X, y)
        probs = rf.predict_proba(X[:5])
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_stats_reports_size(self, binary_blobs):
        X, y = binary_blobs
        rf = RandomForest(n_trees=3, seed=0).fit(X, y)
        st = rf.stats()
        assert st["nodes"] >= 1 and st["depth"] >= 1

    def test_invalid_tree_count(self):
        with pytest.raises(ValueError):
            RandomForest(n_trees=0).fit(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_invalid_tree_count_is_refused_before_binning(self, monkeypatch):
        binned = []
        monkeypatch.setattr("repro.ml.forest.bin_matrix", lambda *a, **k: binned.append(a))
        with pytest.raises(ValueError, match="n_trees"):
            RandomForest(n_trees=0).fit(np.zeros((4, 2)), np.zeros(4, dtype=int))
        assert binned == []

    def test_predict_rejects_a_matrix_of_another_width(self, toy_classification):
        """A forest fitted on a feature subset must not silently read the
        first columns of the full matrix."""
        X, y = toy_classification
        rf = RandomForest(n_trees=3, seed=0).fit(X[:, 1:], y)
        assert rf.predict(X[:, 1:]).shape == y.shape
        for method in (rf.predict, rf.predict_proba):
            with pytest.raises(ValueError, match=rf"\(n, {X.shape[1] - 1}\)"):
                method(X)
            with pytest.raises(ValueError):
                method(X[0, 1:])
        with pytest.raises(RuntimeError):
            RandomForest().predict_proba(X)


class TestRules:
    def test_jrip_rules_predict_minority_first(self, binary_blobs):
        X, y = binary_blobs
        clf = JRip(seed=0).fit(X, y)
        assert clf.n_rules >= 1
        # Rules target non-default classes; the default covers the rest.
        assert all(r.prediction != clf.default_class_ for r in clf.rules_)

    def test_jrip_handles_imbalance(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(0, 1, (190, 2)), rng.normal(5, 0.5, (10, 2))])
        y = np.array([0] * 190 + [1] * 10)
        clf = JRip(seed=0).fit(X, y)
        preds = clf.predict(X)
        assert (preds[y == 1] == 1).mean() > 0.7

    def test_part_extracts_rules(self, toy_classification):
        X, y = toy_classification
        clf = PART().fit(X, y)
        assert clf.n_rules >= 2

    def test_rule_str_renders(self, binary_blobs):
        X, y = binary_blobs
        clf = JRip(seed=0).fit(X, y)
        text = str(clf.rules_[0])
        assert "=> class" in text


class TestSMO:
    def test_ovo_machine_count_quadratic(self, toy_classification):
        X, y = toy_classification
        clf = SMO(max_passes=1, seed=0).fit(X, y)
        assert len(clf._machines) == 3  # C(3,2)

    def test_linear_kernel_separable(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-2, 0.5, (40, 2)), rng.normal(2, 0.5, (40, 2))])
        y = np.repeat([0, 1], 40)
        clf = SMO(kernel="linear", max_passes=3, seed=0).fit(X, y)
        assert accuracy(clf, X, y) > 0.95

    def test_unknown_kernel_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        y = np.array([0, 1] * 5)
        with pytest.raises(ValueError):
            SMO(kernel="poly").fit(X, y)

    def test_subsampling_cap(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 1, (300, 2)), rng.normal(5, 1, (300, 2))])
        y = np.repeat([0, 1], 300)
        clf = SMO(max_per_machine=100, max_passes=1, seed=0).fit(X, y)
        assert accuracy(clf, X, y) > 0.9


class TestMLP:
    def test_hidden_default_weka_a(self, toy_classification):
        X, y = toy_classification
        clf = MLP(epochs=5, seed=0).fit(X, y)
        # (d + k) // 2 = (6 + 3) // 2 = 4 hidden units
        assert clf._params["w1"].shape == (6, 4)

    def test_probabilities_normalized(self, toy_classification):
        X, y = toy_classification
        clf = MLP(epochs=30, seed=0).fit(X, y)
        probs = clf.predict_proba(X[:7])
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_standardization_handles_constant_features(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.normal(0, 1, 60), np.full(60, 3.0)])
        y = (X[:, 0] > 0).astype(int)
        clf = MLP(epochs=60, seed=0).fit(X, y)
        assert accuracy(clf, X, y) > 0.8

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            MLP(epochs=0).fit(np.zeros((4, 2)), np.zeros(4, dtype=int))
