"""RandomForest: bagged random trees over histogram-binned features.

The paper's best classifier.  Weka-compatible choices: each tree trains on
a bootstrap sample, each split considers ``ceil(log2(d)+1)`` random features
(Weka's default) scored by gini impurity, and trees are unpruned.

Split finding is histogram-based (:mod:`repro.ml._hist`): features are
quantile-binned once per fit, and each node builds one (features × bins ×
classes) count table over its candidate features.  Per-node cost is then
O(instances) plus a small O(bins × classes) term, so the number of classes
barely affects per-node cost — matching the cost profile of the classical
learners the paper timed (and of modern GBDT systems).  Nodes operate on
*index arrays* into the binned matrix and hand their labels and class counts
down; no per-node data copies, no re-counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ml._hist import BinnedMatrix, bin_matrix, split_node


@dataclass
class _Node:
    prediction: int
    counts: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def size_depth(self) -> tuple[int, int]:
        if self.is_leaf:
            return 1, 0
        assert self.left is not None and self.right is not None
        ln, ld = self.left.size_depth()
        rn, rd = self.right.size_depth()
        return ln + rn + 1, 1 + max(ld, rd)


class _RandomTree:
    """One unpruned random tree trained on binned features."""

    def __init__(self, k_features: int, min_leaf: int, max_depth: int | None,
                 rng: np.random.Generator) -> None:
        self.k_features = k_features
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        self.rng = rng
        self.root: _Node | None = None

    def fit(self, binned: BinnedMatrix, y: np.ndarray, idx: np.ndarray, n_classes: int) -> None:
        self.n_classes = n_classes
        self.root = self._build(binned, idx, y[idx], depth=0)

    def _build(self, binned: BinnedMatrix, idx: np.ndarray, y_node: np.ndarray,
               depth: int) -> _Node:
        """Grow the subtree over instances ``idx``, whose labels are ``y_node``.

        Depth-first on purpose: nodes draw features from ``rng`` in preorder, so
        a right child's draw depends on the size of its left sibling's subtree
        and a level-wise pass would change every fitted tree.
        """
        counts = np.bincount(y_node, minlength=self.n_classes)
        node = _Node(prediction=int(np.argmax(counts)), counts=counts)
        if (
            counts.max() == idx.size
            or idx.size < 2 * self.min_leaf
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        d = binned.n_features
        feats = self.rng.choice(d, size=min(self.k_features, d), replace=False)
        split = split_node(binned, idx, y_node, counts, feats, self.min_leaf)
        if split is None:
            # Retry with all features before declaring a leaf, as Weka does.
            split = split_node(binned, idx, y_node, counts, np.arange(d), self.min_leaf)
            if split is None:
                return node
        go_left = binned.wide[split.feature, idx] <= split.bin_index
        node.feature = split.feature
        node.threshold = split.threshold
        node.left = self._build(binned, idx[go_left], y_node[go_left], depth + 1)
        node.right = self._build(binned, idx[~go_left], y_node[~go_left], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        assert self.root is not None
        n = X.shape[0]
        out = np.empty(n, dtype=int)
        # Vectorized routing: partition the index set level by level.
        stack: list[tuple[_Node, np.ndarray]] = [(self.root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.prediction
                continue
            assert node.left is not None and node.right is not None
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out


def tally_votes(members: list, X: np.ndarray, n_classes: int, n_features: int) -> np.ndarray:
    """(rows, classes) count of the votes ``member.predict(X)`` casts, for an
    ensemble fitted on ``n_features`` columns."""
    if not members:
        raise RuntimeError("fit() must be called before predict()")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"X must be (n, {n_features}) as fitted, got shape {X.shape}")
    votes = np.zeros((X.shape[0], n_classes), dtype=int)
    rows = np.arange(X.shape[0])
    for member in members:
        votes[rows, member.predict(X)] += 1
    return votes


@dataclass
class RandomForest:
    """Ensemble of random trees with majority voting."""

    n_trees: int = 50
    n_features_per_split: int | None = None  # default: ceil(log2(d) + 1)
    min_leaf: int = 1
    max_depth: int | None = None
    n_bins: int = 64
    seed: int = 0
    _trees: list[_RandomTree] = field(default_factory=list, repr=False)
    n_classes_: int = 0
    n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) with one label per row")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        return self._fit_binned(bin_matrix(X, self.n_bins, y), y)

    def _fit_binned(self, binned: BinnedMatrix, y: np.ndarray) -> "RandomForest":
        """Grow the trees from an already binned matrix, so that callers
        training many forests on one matrix (the distributed forest's
        one-tree tasks) bin it once."""
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        n, d = binned.codes.shape
        self.n_classes_ = int(y.max()) + 1
        self.n_features_ = d
        k = self.n_features_per_split or max(1, math.ceil(math.log2(max(d, 2)) + 1))
        rng = np.random.default_rng(self.seed)
        self._trees = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, size=n)  # bootstrap sample (indices)
            tree = _RandomTree(k, self.min_leaf, self.max_depth,
                               np.random.default_rng(int(rng.integers(0, 2**63))))
            tree.fit(binned, y, idx, self.n_classes_)
            self._trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(tally_votes(self._trees, X, self.n_classes_, self.n_features_), axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return tally_votes(self._trees, X, self.n_classes_, self.n_features_) / len(self._trees)

    def stats(self) -> dict[str, float]:
        """Mean node count and depth across trees (ablation/diagnostics)."""
        if not self._trees:
            return {"nodes": 0.0, "depth": 0.0}
        sizes = [t.root.size_depth() for t in self._trees if t.root is not None]
        return {
            "nodes": float(np.mean([s for s, _ in sizes])),
            "depth": float(np.mean([d for _, d in sizes])),
        }
