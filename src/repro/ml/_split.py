"""Vectorized numeric split search shared by the tree learners.

All of this repository's features are numeric, so a split is a
``(feature, threshold)`` pair sending ``x <= threshold`` left.  For each
candidate feature the column is sorted once and class counts are prefix-
summed, so every threshold's impurity is evaluated in one vectorized pass —
no per-threshold Python loop (see the optimization guide: vectorize the
inner loop, it runs millions of times across a forest).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def entropy_from_counts(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a class-count vector."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def leading_row_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each row's sum over its own ``lengths[i]`` leading columns, in the
    order NumPy sums a row of exactly that many values.

    Below 8 values NumPy adds left to right, so trailing zero padding is
    harmless and one left-to-right pass over at most 7 columns serves every
    such row.  From 8 on it adds in eight interleaved partial sums, so a
    row's length decides its rounding: those rows are summed by NumPy in
    groups of equal length, unpadded.  The batched searches use it to keep
    a per-row reduction over the classes present (a node's gini,
    :func:`entropy_from_counts`) bit-identical to the one-row call.
    """
    out = values[:, 0].copy()
    for j in range(1, min(values.shape[1], 7)):
        out += values[:, j]
    if values.shape[1] >= 8:
        for size in np.unique(lengths[lengths >= 8]).tolist():
            rows = np.flatnonzero(lengths == size)
            out[rows] = values[rows, :size].sum(axis=1)
    return out


def gini_from_counts(counts: np.ndarray) -> float:
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    score: float  # impurity decrease (gini) or gain ratio (entropy mode)
    n_left: int
    n_right: int


def _impurity_curve(prefix: np.ndarray, total: np.ndarray, criterion: str) -> np.ndarray:
    """Weighted child impurity for every split position.

    ``prefix`` is (n-1, n_classes): class counts of the left side after each
    of the n-1 split positions.  Returns the weighted sum of child
    impurities (lower is better) per position.
    """
    n = total.sum()
    left = prefix.astype(float)
    right = total.astype(float) - left
    nl = left.sum(axis=1)
    nr = right.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if criterion == "gini":
            pl = left / nl[:, None]
            pr = right / nr[:, None]
            il = 1.0 - np.nansum(pl * pl, axis=1)
            ir = 1.0 - np.nansum(pr * pr, axis=1)
        else:  # entropy
            pl = left / nl[:, None]
            pr = right / nr[:, None]
            il = -np.nansum(np.where(pl > 0, pl * np.log2(pl), 0.0), axis=1)
            ir = -np.nansum(np.where(pr > 0, pr * np.log2(pr), 0.0), axis=1)
    return (nl * il + nr * ir) / n


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    feature_indices: np.ndarray,
    criterion: str = "gini",
    min_leaf: int = 1,
) -> Split | None:
    """Best (feature, threshold) over the candidate features, or None.

    ``criterion='gini'`` scores by impurity decrease (CART / RandomForest);
    ``criterion='gain_ratio'`` scores by C4.5's information gain ratio.
    """
    n = y.size
    if n < 2 * min_leaf:
        return None
    total = np.bincount(y, minlength=n_classes)
    if criterion == "gain_ratio":
        parent = entropy_from_counts(total)
        base_criterion = "entropy"
    else:
        parent = gini_from_counts(total)
        base_criterion = "gini"
    if parent <= 0.0:
        return None

    best: Split | None = None
    onehot = np.zeros((n, n_classes), dtype=np.int64)
    onehot[np.arange(n), y] = 1

    for feat in feature_indices:
        col = X[:, feat]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        if xs[0] == xs[-1]:
            continue  # constant feature
        prefix = np.cumsum(onehot[order], axis=0)[:-1]  # counts left of each gap
        child = _impurity_curve(prefix, total, base_criterion)

        nl = np.arange(1, n)
        nr = n - nl
        valid = (xs[1:] != xs[:-1]) & (nl >= min_leaf) & (nr >= min_leaf)
        if not valid.any():
            continue
        gain = parent - child
        if criterion == "gain_ratio":
            with np.errstate(divide="ignore", invalid="ignore"):
                fl = nl / n
                fr = nr / n
                split_info = -(fl * np.log2(fl) + fr * np.log2(fr))
            score = np.where((split_info > 1e-12) & (gain > 1e-12), gain / split_info, -np.inf)
        else:
            score = gain
        score = np.where(valid, score, -np.inf)
        pos = int(np.argmax(score))
        if not np.isfinite(score[pos]) or score[pos] <= 0:
            continue
        if best is None or score[pos] > best.score:
            threshold = 0.5 * (xs[pos] + xs[pos + 1])
            best = Split(
                feature=int(feat),
                threshold=float(threshold),
                score=float(score[pos]),
                n_left=int(nl[pos]),
                n_right=int(nr[pos]),
            )
    return best
