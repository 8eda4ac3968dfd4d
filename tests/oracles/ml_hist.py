"""The forest's sequential tree builder, its per-feature split search and the
per-segment MDL cut search, kept as test oracles.

The searches were once the bodies of ``repro.ml._hist.best_hist_split`` /
``_small_node_split`` and ``repro.ml.discretize._best_cut`` /
``_mdl_accepts`` / ``mdl_cut_points``, and the builder was
``repro.ml.forest._RandomTree._build`` with the tree loop of
``RandomForest._fit_binned``.  Nothing live calls them; the identity laws
hold the live code to them:

- ``RandomForest`` ≡ :func:`_reference_fit_binned`, node for node (feature,
  threshold, class counts, prediction), for 1, 2 and 20 trees
  (``tests/test_ml_split_hist.py``);
- ``best_hist_split`` ≡ :func:`_reference_best_hist_split`, field for field
  and bit for bit, on both sides of the 48-instance threshold
  (``tests/test_ml_split_hist.py``);
- ``mdl_cuts`` ≡ :func:`_reference_mdl_cut_points`, column by column and
  cut for cut, over whole matrices and through its one-column call
  ``mdl_cut_points`` and ``bin_matrix``; its child entropies ≡
  :func:`_reference_best_cut`'s, bit for bit
  (``tests/test_ml_preprocessing.py``).

The bodies are the ones ``src/`` shipped, moved: one tree at a time, each
grown by depth-first recursion; one histogram, one cumsum and one gini
evaluation *per candidate feature*; and one one-hot + cumsum, and every
value change a candidate, *per recursive segment* of one column.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ml._hist import BinnedMatrix, HistSplit
from repro.ml._split import entropy_from_counts
from repro.ml.forest import RandomForest, _Node

# -- tree building ------------------------------------------------------------


def _reference_fit_binned(
    forest: RandomForest, binned: BinnedMatrix, y: np.ndarray
) -> list[_Node]:
    """The roots of the trees ``forest._fit_binned(binned, y)`` grows, grown
    one tree at a time: draw a tree's bootstrap and seed, build it, repeat."""
    n, d = binned.codes.shape
    n_classes = int(y.max()) + 1
    k = forest.n_features_per_split or max(1, math.ceil(math.log2(max(d, 2)) + 1))
    rng = np.random.default_rng(forest.seed)
    roots = []
    for _ in range(forest.n_trees):
        idx = rng.integers(0, n, size=n)  # bootstrap sample (indices)
        tree_rng = np.random.default_rng(int(rng.integers(0, 2**63)))
        roots.append(_reference_grow_tree(binned, y, idx, 0, n_classes, k, forest.min_leaf,
                                          forest.max_depth, tree_rng))
    return roots


def _reference_grow_tree(
    binned: BinnedMatrix, y: np.ndarray, idx: np.ndarray, depth: int, n_classes: int,
    k_features: int, min_leaf: int, max_depth: int | None, rng: np.random.Generator,
) -> _Node:
    """Grow the subtree over instances ``idx``, depth first: nodes draw
    their candidate features from ``rng`` in preorder."""
    counts = np.bincount(y[idx], minlength=n_classes)
    node = _Node(prediction=int(np.argmax(counts)), counts=counts)
    if (
        counts.max() == idx.size
        or idx.size < 2 * min_leaf
        or (max_depth is not None and depth >= max_depth)
    ):
        return node
    d = binned.n_features
    feats = rng.choice(d, size=min(k_features, d), replace=False)
    split = _reference_best_hist_split(binned, idx, y, n_classes, feats, min_leaf)
    if split is None:
        # Retry with all features before declaring a leaf, as Weka does.
        split = _reference_best_hist_split(binned, idx, y, n_classes, np.arange(d), min_leaf)
        if split is None:
            return node
    go_left = binned.codes[idx, split.feature] <= split.bin_index
    node.feature = split.feature
    node.threshold = split.threshold
    args = (n_classes, k_features, min_leaf, max_depth, rng)
    node.left = _reference_grow_tree(binned, y, idx[go_left], depth + 1, *args)
    node.right = _reference_grow_tree(binned, y, idx[~go_left], depth + 1, *args)
    return node


# -- split search -------------------------------------------------------------


def _reference_best_hist_split(
    binned: BinnedMatrix,
    idx: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    feature_indices: np.ndarray,
    min_leaf: int = 1,
) -> HistSplit | None:
    """Best gini split over the node's instances ``idx``, one feature at a time."""
    n = idx.size
    if n < 2 * min_leaf:
        return None
    y_node = y[idx]
    total = np.bincount(y_node, minlength=n_classes).astype(float)
    parent = 1.0 - float(((total / n) ** 2).sum())
    if parent <= 0.0:
        return None
    present = np.flatnonzero(total > 0)
    if present.size < n_classes:
        y_node = np.searchsorted(present, y_node)
        total = total[present]
        n_classes = present.size

    if n <= 48:
        return _reference_small_node_split(binned, idx, y_node, total, n_classes,
                                           feature_indices, min_leaf, parent)

    best: HistSplit | None = None
    for feat in feature_indices:
        edges = binned.edges[feat]
        if edges.size == 0:
            continue
        codes = binned.codes[idx, feat].astype(np.int64)
        n_bins = edges.size + 1
        hist = np.bincount(codes * n_classes + y_node, minlength=n_bins * n_classes)
        hist = hist.reshape(n_bins, n_classes).astype(float)
        left = np.cumsum(hist, axis=0)[:-1]  # counts with code <= b
        right = total[None, :] - left
        nl = left.sum(axis=1)
        nr = n - nl
        valid = (nl >= min_leaf) & (nr >= min_leaf)
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gl = 1.0 - np.nansum((left / nl[:, None]) ** 2, axis=1)
            gr = 1.0 - np.nansum((right / nr[:, None]) ** 2, axis=1)
        child = (nl * gl + nr * gr) / n
        gain = np.where(valid, parent - child, -np.inf)
        pos = int(np.argmax(gain))
        if gain[pos] <= 1e-12:
            continue
        if best is None or gain[pos] > best.score:
            best = HistSplit(
                feature=int(feat),
                bin_index=pos,
                threshold=float(edges[pos]),
                score=float(gain[pos]),
                n_left=int(nl[pos]),
                n_right=int(nr[pos]),
            )
    return best


def _reference_small_node_split(
    binned: BinnedMatrix,
    idx: np.ndarray,
    y_node: np.ndarray,
    total: np.ndarray,
    n_classes: int,
    feature_indices: np.ndarray,
    min_leaf: int,
    parent: float,
) -> HistSplit | None:
    """Exact gini sweep over a small node's own sorted code values."""
    n = idx.size
    best: HistSplit | None = None
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_node] = 1.0
    for feat in feature_indices:
        edges = binned.edges[feat]
        if edges.size == 0:
            continue
        codes = binned.codes[idx, feat]
        order = np.argsort(codes, kind="stable")
        xs = codes[order]
        if xs[0] == xs[-1]:
            continue
        left = np.cumsum(onehot[order], axis=0)[:-1]
        right = total[None, :] - left
        nl = left.sum(axis=1)
        nr = n - nl
        valid = (xs[1:] != xs[:-1]) & (nl >= min_leaf) & (nr >= min_leaf)
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gl = 1.0 - np.nansum((left / nl[:, None]) ** 2, axis=1)
            gr = 1.0 - np.nansum((right / nr[:, None]) ** 2, axis=1)
        gain = np.where(valid, parent - (nl * gl + nr * gr) / n, -np.inf)
        pos = int(np.argmax(gain))
        if gain[pos] <= 1e-12:
            continue
        if best is None or gain[pos] > best.score:
            bin_index = int(xs[pos])  # go left when code <= this value
            best = HistSplit(
                feature=int(feat),
                bin_index=bin_index,
                threshold=float(edges[min(bin_index, edges.size - 1)]),
                score=float(gain[pos]),
                n_left=int(nl[pos]),
                n_right=int(nr[pos]),
            )
    return best


# -- MDL cut search -----------------------------------------------------------


def _counts(y: np.ndarray, n_classes: int) -> np.ndarray:
    return np.bincount(y, minlength=n_classes)


def _reference_best_cut(
    xs: np.ndarray, ys: np.ndarray, n_classes: int
) -> tuple[int, float] | None:
    """Boundary index and weighted child entropy of the best cut, or None.

    ``xs`` must be sorted.  Candidate cuts are positions where the value
    changes.
    """
    n = xs.size
    if n < 2:
        return None
    onehot = np.zeros((n, n_classes), dtype=np.int64)
    onehot[np.arange(n), ys] = 1
    prefix = np.cumsum(onehot, axis=0)[:-1]
    total = prefix[-1] + onehot[-1]
    left = prefix.astype(float)
    right = total.astype(float) - left
    nl = left.sum(axis=1)
    nr = right.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pl = left / nl[:, None]
        pr = right / nr[:, None]
        el = -np.nansum(np.where(pl > 0, pl * np.log2(pl), 0.0), axis=1)
        er = -np.nansum(np.where(pr > 0, pr * np.log2(pr), 0.0), axis=1)
    weighted = (nl * el + nr * er) / n
    valid = xs[1:] != xs[:-1]
    if not valid.any():
        return None
    weighted = np.where(valid, weighted, np.inf)
    pos = int(np.argmin(weighted))
    return pos, float(weighted[pos])


def _reference_mdl_accepts(
    ys: np.ndarray, ys_left: np.ndarray, ys_right: np.ndarray, n_classes: int, gain: float
) -> bool:
    n = ys.size
    e = entropy_from_counts(_counts(ys, n_classes))
    e1 = entropy_from_counts(_counts(ys_left, n_classes))
    e2 = entropy_from_counts(_counts(ys_right, n_classes))
    k = int(np.count_nonzero(_counts(ys, n_classes)))
    k1 = int(np.count_nonzero(_counts(ys_left, n_classes)))
    k2 = int(np.count_nonzero(_counts(ys_right, n_classes)))
    delta = math.log2(max(3.0**k - 2.0, 1.0)) - (k * e - k1 * e1 - k2 * e2)
    threshold = (math.log2(n - 1) + delta) / n
    return gain > threshold


def _reference_mdl_cut_points(
    x: np.ndarray, y: np.ndarray, n_classes: int, max_depth: int = 8
) -> list[float]:
    """All accepted cut points of one attribute, ascending."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    cuts: list[float] = []

    def recurse(lo: int, hi: int, depth: int) -> None:
        if depth >= max_depth or hi - lo < 4:
            return
        seg_x, seg_y = xs[lo:hi], ys[lo:hi]
        found = _reference_best_cut(seg_x, seg_y, n_classes)
        if found is None:
            return
        pos, child_entropy = found
        parent_entropy = entropy_from_counts(_counts(seg_y, n_classes))
        gain = parent_entropy - child_entropy
        if gain <= 0:
            return
        if not _reference_mdl_accepts(seg_y, seg_y[: pos + 1], seg_y[pos + 1 :],
                                      n_classes, gain):
            return
        cuts.append(0.5 * (seg_x[pos] + seg_x[pos + 1]))
        recurse(lo, lo + pos + 1, depth + 1)
        recurse(lo + pos + 1, hi, depth + 1)

    recurse(0, xs.size, 0)
    return sorted(cuts)
