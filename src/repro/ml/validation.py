"""Stratified cross-validation and the paper's trial protocol.

The paper's protocol (Section 6.2): each benchmark is divided into six
folds — one reserved for feature selection, five for cross-validated
training/testing.  :func:`paper_protocol_split` reproduces that;
:func:`cross_validate` runs the five-fold part, timing training, applying
SMOTE to training folds only, and scoring on the binary pulsar/non-pulsar
collapse regardless of the labeling scheme.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.core.alm import AlmScheme, binarize
from repro.ml.metrics import BinaryScores, ClassificationReport, binary_scores, confusion_matrix


def stratified_kfold(
    y: np.ndarray, n_folds: int, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train_idx, test_idx) pairs with per-class proportional allocation."""
    y = np.asarray(y, dtype=int)
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    if y.size < n_folds:
        raise ValueError(f"cannot make {n_folds} folds from {y.size} instances")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(y.size, dtype=int)
    for cls in np.unique(y):
        idx = np.nonzero(y == cls)[0]
        rng.shuffle(idx)
        # Round-robin assignment keeps every fold's class mix proportional.
        fold_of[idx] = np.arange(idx.size) % n_folds
    out = []
    for f in range(n_folds):
        test = np.nonzero(fold_of == f)[0]
        train = np.nonzero(fold_of != f)[0]
        out.append((train, test))
    return out


def paper_protocol_split(
    y: np.ndarray, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Six-way split: (feature-selection fold indices, remaining indices)."""
    y = np.asarray(y, dtype=int)
    folds = stratified_kfold(y, 6, seed=seed)
    fs_fold = folds[0][1]
    rest = folds[0][0]
    return fs_fold, rest


def cross_validate(
    factory: Callable[[], object],
    X: np.ndarray,
    y: np.ndarray,
    n_folds: int = 5,
    positive_collapse: AlmScheme | None = None,
    apply_smote: bool = False,
    smote_ratio: float = 1.0,
    smote_mode: str = "subclass",
    feature_subset: Sequence[int] | None = None,
    seed: int = 0,
) -> ClassificationReport:
    """Run one classification trial: k-fold CV with timing.

    Parameters
    ----------
    factory:
        Zero-argument callable returning a fresh (unfit) classifier.
    positive_collapse:
        The ALM scheme whose non-pulsar class defines the negative side of
        the binary scoring collapse.  ``None`` means labels are already
        binary 0/1.
    apply_smote:
        Balance *training* folds with SMOTE (test folds untouched).
    feature_subset:
        Column indices to keep (output of feature selection).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if feature_subset is not None:
        X = X[:, list(feature_subset)]
    n_classes = int(y.max()) + 1
    report = ClassificationReport()

    for train_idx, test_idx in stratified_kfold(y, n_folds, seed=seed):
        X_train, y_train = X[train_idx], y[train_idx]
        X_test, y_test = X[test_idx], y[test_idx]
        if apply_smote:
            from repro.core.alm import NON_PULSAR
            from repro.ml.smote import balance_with_smote

            non_pulsar = (
                positive_collapse.class_index(NON_PULSAR)
                if positive_collapse is not None
                else None
            )
            X_train, y_train = balance_with_smote(
                X_train, y_train, target_ratio=smote_ratio, seed=seed,
                non_pulsar_class=non_pulsar, mode=smote_mode,
            )
        clf = factory()
        t0 = time.perf_counter()
        clf.fit(X_train, y_train)  # type: ignore[attr-defined]
        train_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        y_pred = clf.predict(X_test)  # type: ignore[attr-defined]
        test_time = time.perf_counter() - t0

        if positive_collapse is not None:
            true_bin = binarize(positive_collapse, y_test)
            pred_bin = binarize(positive_collapse, y_pred)
        else:
            true_bin = (y_test != 0).astype(int)
            pred_bin = (y_pred != 0).astype(int)
        scores: BinaryScores = binary_scores(true_bin, pred_bin)
        cm = confusion_matrix(y_test, y_pred, n_classes)
        report.add_fold(scores, train_time, test_time, cm)

        # Per-instance correctness on the binary collapse — RQ4's raw data.
        correct = true_bin == pred_bin
        report.instance_correct.update(zip(test_idx.tolist(), correct.tolist()))
    return report


def most_misclassified(
    reports: dict[str, ClassificationReport],
    positive_mask: np.ndarray,
    miss_range: tuple[float, float] = (0.75, 0.99),
) -> list[int]:
    """Positive instances missed by a fraction of classifiers in the range.

    ``reports`` maps a classifier description to its CV report; an instance
    counts as missed by a classifier when ``instance_correct`` is False.
    Reproduces RQ4's "missed by 75–99% of all classifiers" population.
    """
    positive_mask = np.asarray(positive_mask, dtype=bool)
    lo, hi = miss_range
    out = []
    n_classifiers = len(reports)
    if n_classifiers == 0:
        return out
    for i in np.nonzero(positive_mask)[0]:
        missed = sum(
            1 for rep in reports.values() if rep.instance_correct.get(int(i)) is False
        )
        frac = missed / n_classifiers
        if lo <= frac <= hi:
            out.append(int(i))
    return out
