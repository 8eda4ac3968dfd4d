"""Fayyad–Irani MDL supervised discretization.

The entropy-based feature rankers (InfoGain, GainRatio,
SymmetricalUncertainty) are defined on nominal attributes; Weka first
discretizes numeric attributes with the Fayyad & Irani (1993) method:
recursively split each attribute at the entropy-minimizing cut point and
accept the split only if its information gain passes the MDL criterion

    gain > [ log2(N - 1) + log2(3^k - 2) - k E + k1 E1 + k2 E2 ] / N

where k/k1/k2 count classes present in the parent/children and E/E1/E2 are
their entropies.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ml._split import entropy_from_counts


def _weighted_child_entropy(left: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Size-weighted entropy of the two children of each candidate cut.

    ``left`` is (cuts, classes): class counts left of each cut of a segment
    whose class counts are ``total``; neither side of a cut is empty.
    """
    left = left.astype(float)
    right = total.astype(float) - left
    nl = left.sum(axis=1)
    nr = right.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pl = left / nl[:, None]
        pr = right / nr[:, None]
        el = -np.where(pl > 0, pl * np.log2(pl), 0.0).sum(axis=1)
        er = -np.where(pr > 0, pr * np.log2(pr), 0.0).sum(axis=1)
    return (nl * el + nr * er) / total.sum()


def _mdl_accepts(total: np.ndarray, left: np.ndarray, entropy: float, gain: float) -> bool:
    """Fayyad–Irani's criterion for cutting a segment with class counts
    ``total`` (of entropy ``entropy``) so that ``left`` falls on one side."""
    right = total - left
    k, k1, k2 = (int(np.count_nonzero(c)) for c in (total, left, right))
    e1, e2 = entropy_from_counts(left), entropy_from_counts(right)
    delta = math.log2(max(3.0**k - 2.0, 1.0)) - (k * entropy - k1 * e1 - k2 * e2)
    n = int(total.sum())
    return gain > (math.log2(n - 1) + delta) / n


def mdl_cut_points(
    x: np.ndarray, y: np.ndarray, n_classes: int, max_depth: int = 8
) -> list[float]:
    """All accepted cut points of one attribute, ascending."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # One class-count prefix table for the column: prefix[i] counts the
    # classes of the i smallest values, so any segment's or any cut's counts
    # are a difference of two rows and no recursion level rebuilds them.
    onehot = np.zeros((x.size + 1, n_classes), dtype=np.int64)
    onehot[np.arange(1, x.size + 1), y[order]] = 1
    prefix = np.cumsum(onehot, axis=0)
    # Candidate cuts are positions where the value changes (Fayyad & Irani
    # showed optimal cuts lie on class boundaries; the value-change superset
    # keeps the vectorization simple and is correct).
    boundaries = np.flatnonzero(xs[1:] != xs[:-1])
    cuts: list[float] = []
    # A stack, not a recursive closure: a closure that names itself is a
    # reference cycle, which keeps the table alive until the next collection.
    segments = [(0, xs.size, 0)]
    while segments:
        lo, hi, depth = segments.pop()
        if depth >= max_depth or hi - lo < 4:
            continue
        first, last = np.searchsorted(boundaries, (lo, hi - 1))
        if first == last:
            continue
        candidates = boundaries[first:last]  # cut between xs[p] and xs[p + 1]
        total = prefix[hi] - prefix[lo]
        weighted = _weighted_child_entropy(prefix[candidates + 1] - prefix[lo], total)
        best = int(np.argmin(weighted))
        parent_entropy = entropy_from_counts(total)
        gain = parent_entropy - float(weighted[best])
        cut = int(candidates[best])
        if gain > 0 and _mdl_accepts(total, prefix[cut + 1] - prefix[lo], parent_entropy, gain):
            cuts.append(0.5 * (xs[cut] + xs[cut + 1]))
            segments += [(lo, cut + 1, depth + 1), (cut + 1, hi, depth + 1)]
    return sorted(cuts)


def discretize_column(x: np.ndarray, cuts: list[float]) -> np.ndarray:
    """Map values to bin indices given cut points (0..len(cuts))."""
    if not cuts:
        return np.zeros(np.asarray(x).shape[0], dtype=int)
    return np.searchsorted(np.asarray(cuts), np.asarray(x, dtype=float), side="right")


def mdl_discretize(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list[list[float]]]:
    """Discretize every column; returns (binned X, per-column cut points).

    Columns where MDL accepts no cut collapse to a single bin — exactly how
    Weka marks an attribute as uninformative (its InfoGain becomes 0).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n_classes = int(y.max()) + 1 if y.size else 1
    binned = np.empty(X.shape, dtype=int)
    all_cuts: list[list[float]] = []
    for j in range(X.shape[1]):
        cuts = mdl_cut_points(X[:, j], y, n_classes)
        all_cuts.append(cuts)
        binned[:, j] = discretize_column(X[:, j], cuts)
    return binned, all_cuts
