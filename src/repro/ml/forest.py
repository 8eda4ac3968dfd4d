"""RandomForest: bagged random trees over histogram-binned features.

The paper's best classifier.  Weka-compatible choices: each tree trains on
a bootstrap sample, each split considers ``ceil(log2(d)+1)`` random features
(Weka's default) scored by gini impurity, and trees are unpruned.

Split finding is histogram-based (:mod:`repro.ml._hist`): features are
quantile-binned once per fit, and a node's candidate features share one
(features × bins × classes) count table.  Per-node cost is then
O(instances) plus a small O(bins × classes) term, so the number of classes
barely affects per-node cost — matching the cost profile of the classical
learners the paper timed (and of modern GBDT systems).

The trees grow in lockstep (:func:`_grow_trees`): every tree's bootstrap
and generator are drawn first, then each wave takes the next node of every
unfinished tree and searches and partitions them in one batched call, so
that the NumPy call count of a fit follows its largest tree, not the sum of
all trees' nodes.  Each tree still draws its nodes' features in preorder
from its own generator, so the trees are the ones a tree-at-a-time
recursion grows (``tests/oracles/ml_hist.py`` keeps that recursion as the
law).  Nodes hold *index arrays* into the binned matrix and their class
counts; a split hands both sides' counts down, so no node re-counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ml._hist import BinnedMatrix, bin_matrix, split_nodes


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
    """One unpruned random tree trained on binned features (grown by
    :func:`_grow_trees`)."""

    def __init__(self, root: _Node) -> None:
        self.root = root

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


def _grow_trees(
    binned: BinnedMatrix, y: np.ndarray, draws: list[tuple[np.ndarray, np.random.Generator]],
    n_classes: int, k: int, min_leaf: int, max_depth: int | None,
) -> list[_RandomTree]:
    """Grow one tree per ``(bootstrap, generator)`` pair, all in lockstep.

    Each tree grows depth-first from its own stack, and so its nodes draw
    their candidate features from its generator in preorder: a right child's
    draw depends on how many its left sibling's subtree consumed, so one
    tree cannot be grown level by level.  The trees' generators are
    independent, though, so they can advance side by side.  In each wave
    every unfinished tree pops nodes until one can be split (a leaf settles
    with no NumPy work) and draws its candidates; the wave's nodes are then
    searched, retried on all features where nothing was found, and
    partitioned together, and each tree pushes its node's right child, then
    its left.
    """
    d = binned.n_features
    roots: list[_Node] = []
    stacks: list[list[tuple[_Node, np.ndarray, int, bool]]] = []
    for idx, _ in draws:
        counts = np.bincount(y[idx], minlength=n_classes)
        roots.append(_Node(prediction=int(np.argmax(counts)), counts=counts))
        stacks.append([(roots[-1], idx, 0, bool(counts.max() == idx.size))])
    all_features = np.arange(d)
    while True:
        wave: list[tuple[list, _Node, np.ndarray, int]] = []
        feats = []
        for stack, (_, rng) in zip(stacks, draws):
            while stack:
                node, idx, depth, pure = stack.pop()
                if (
                    pure
                    or idx.size < 2 * min_leaf
                    or (max_depth is not None and depth >= max_depth)
                ):
                    continue
                feats.append(rng.choice(d, size=k, replace=False))
                wave.append((stack, node, idx, depth))
                break
        if not wave:
            return [_RandomTree(root) for root in roots]
        idxs = [idx for _, _, idx, _ in wave]
        counts = np.array([node.counts for _, node, _, _ in wave])
        splits = split_nodes(binned, y, idxs, np.array(feats), counts, min_leaf)
        missed = [j for j, found in enumerate(splits) if found is None]
        if missed:
            # Retry with all features before declaring a leaf, as Weka does.
            retried = split_nodes(binned, y, [idxs[j] for j in missed],
                                  np.broadcast_to(all_features, (len(missed), d)),
                                  counts[missed], min_leaf)
            for j, found in zip(missed, retried):
                splits[j] = found
        done = [j for j, found in enumerate(splits) if found is not None]
        if not done:
            continue
        # Children's class counts, predictions and purity, left children first.
        child_counts = np.array([splits[j].left_counts for j in done]
                                + [splits[j].right_counts for j in done])
        sizes = [splits[j].split.n_left for j in done] + [splits[j].split.n_right for j in done]
        pred = child_counts.argmax(axis=1).tolist()
        pure = (child_counts.max(axis=1) == sizes).tolist()
        for i, j in enumerate(done):
            stack, node, _, depth = wave[j]
            split, left, right, _, _ = splits[j]
            r = i + len(done)
            node.feature, node.threshold = split.feature, split.threshold
            node.left = _Node(prediction=pred[i], counts=child_counts[i])
            node.right = _Node(prediction=pred[r], counts=child_counts[r])
            stack.append((node.right, right, depth + 1, pure[r]))
            stack.append((node.left, left, depth + 1, pure[i]))


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
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        return self._fit_binned(bin_matrix(X, self.n_bins, y), y)

    def _fit_binned(self, binned: BinnedMatrix, y: np.ndarray) -> "RandomForest":
        """Grow the trees from an already binned matrix, so that callers
        training many forests on one matrix (the distributed forest's
        one-tree tasks) bin it once.

        Every tree's (bootstrap, generator) pair is drawn first, in the order
        a tree-at-a-time loop draws them; the trees then grow together.
        """
        n, d = binned.codes.shape
        self.n_classes_ = int(y.max()) + 1
        self.n_features_ = d
        k = self.n_features_per_split or max(1, math.ceil(math.log2(max(d, 2)) + 1))
        rng = np.random.default_rng(self.seed)
        draws = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, size=n)  # bootstrap sample (indices)
            draws.append((idx, np.random.default_rng(int(rng.integers(0, 2**63)))))
        self._trees = _grow_trees(binned, y, draws, self.n_classes_, min(k, d),
                                  self.min_leaf, self.max_depth)
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
