"""Unit tests for Dataset and classification metrics."""

import numpy as np
import pytest

from repro.ml.dataset import Dataset
from repro.ml.metrics import (
    BinaryScores,
    ClassificationReport,
    binary_scores,
    confusion_matrix,
    per_class_scores,
    scores_from_confusion,
)


class TestDataset:
    def test_basic_construction(self):
        ds = Dataset(np.zeros((4, 3)), np.array([0, 1, 0, 1]))
        assert ds.n_instances == 4
        assert ds.n_features == 3
        assert ds.n_classes == 2
        assert ds.feature_names == ("f0", "f1", "f2")

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.array([0, 1, 0]))  # 1-D X
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]))  # length mismatch
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([-1, 0]))  # negative label
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), feature_names=("only_one",))


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), 2)
        assert cm.tolist() == [[1, 1], [0, 2]]

    def test_rows_sum_to_class_counts(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, 100)
        y_pred = rng.integers(0, 4, 100)
        cm = confusion_matrix(y_true, y_pred, 4)
        assert np.array_equal(cm.sum(axis=1), np.bincount(y_true, minlength=4))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 3]), np.array([0, 1]), 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0]), np.array([0, 1]), 2)


class TestBinaryScores:
    def test_equations_2_3_4(self):
        s = BinaryScores(tp=8, tn=80, fp=2, fn=2)
        assert s.recall == pytest.approx(0.8)
        assert s.precision == pytest.approx(0.8)
        assert s.f_measure == pytest.approx(0.8)
        assert s.accuracy == pytest.approx(88 / 92)

    def test_degenerate_zero_denominators(self):
        s = BinaryScores(tp=0, tn=10, fp=0, fn=0)
        assert s.recall == 0.0
        assert s.precision == 0.0
        assert s.f_measure == 0.0

    def test_binary_scores_from_arrays(self):
        s = binary_scores(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 1]))
        assert (s.tp, s.fn, s.tn, s.fp) == (1, 1, 1, 1)

    def test_f_is_harmonic_mean(self):
        s = BinaryScores(tp=9, tn=50, fp=1, fn=3)
        p, r = s.precision, s.recall
        assert s.f_measure == pytest.approx(2 * p * r / (p + r))


class TestCollapsedScores:
    def test_multiclass_collapse(self):
        # 3 classes: 0 = non-pulsar, 1/2 = pulsar subclasses.
        y_true = np.array([0, 0, 1, 2, 2])
        y_pred = np.array([0, 1, 2, 2, 0])  # subclass confusion 1→2 is still TP
        cm = confusion_matrix(y_true, y_pred, 3)
        s = scores_from_confusion(cm, positive_classes=[1, 2])
        assert s.tp == 2  # (1→2) and (2→2)
        assert s.fp == 1  # (0→1)
        assert s.fn == 1  # (2→0)
        assert s.tn == 1

    def test_per_class_scores(self):
        cm = np.array([[5, 1], [2, 8]])
        scores = per_class_scores(cm)
        assert scores[0]["recall"] == pytest.approx(5 / 6)
        assert scores[1]["precision"] == pytest.approx(8 / 9)


class TestClassificationReport:
    def test_aggregation(self):
        rep = ClassificationReport()
        rep.add_fold(BinaryScores(8, 80, 2, 2), train_time_s=1.0,
                     fold_confusion=np.eye(2, dtype=int))
        rep.add_fold(BinaryScores(9, 79, 1, 3), train_time_s=3.0,
                     fold_confusion=np.eye(2, dtype=int))
        assert rep.recall == pytest.approx((0.8 + 0.75) / 2)
        assert rep.train_time_s == pytest.approx(4.0)
        assert rep.median_train_time_s == pytest.approx(2.0)
        assert rep.confusion.tolist() == [[2, 0], [0, 2]]

    def test_empty_report(self):
        rep = ClassificationReport()
        assert rep.recall == 0.0
        assert rep.train_time_s == 0.0

    def test_summary_format(self):
        rep = ClassificationReport()
        rep.add_fold(BinaryScores(1, 1, 0, 0), 0.5)
        assert "Recall=1.000" in rep.summary()
