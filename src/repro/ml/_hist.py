"""Histogram-based split finding for the forest's hot path.

Exact split search costs O(n·k) per feature per node in vectorized NumPy
(class-count prefix sums), which makes multiclass trees artificially
expensive relative to binary ones.  Histogram splitting — pre-bin each
feature into ≤64 quantile bins once per fit, then build a (bins × classes)
count table per node — costs O(n) + O(bins·k) per feature per node, so the
class count only touches the tiny histogram, not the instance dimension.
This matches the cost profile of classical learners (Weka's per-node scan)
and of modern gradient-boosting systems.

A node scores all of its candidate features in one pass (:func:`split_node`):
one gather of their codes, one ``bincount`` into a (features × bins × classes)
table, one ``cumsum``, one gini evaluation, one ``argmax`` — the NumPy call
count does not depend on how many features were drawn.  The per-feature loop
this replaced is ``tests/oracles/ml_hist.py``; the suites hold the one-pass
search to it field for field, ties included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Default number of histogram bins per feature.
N_BINS = 64


@dataclass
class BinnedMatrix:
    """Quantile-binned copy of a feature matrix.

    ``codes[i, j]`` is the bin index of instance i on feature j;
    ``edges[j][b]`` is the real-valued upper edge of bin b (a split "at bin
    b" means ``x <= edges[j][b]``).
    """

    codes: np.ndarray  # (n, d) uint8
    edges: list[np.ndarray]
    #: Derived once per matrix so that no node recomputes them: the bin count
    #: of each feature, and the codes widened to ``intp`` with one contiguous
    #: row per feature — what a bincount key is built from.
    n_bins: np.ndarray = field(init=False, repr=False)  # (d,)
    wide: np.ndarray = field(init=False, repr=False)  # (d, n)

    def __post_init__(self) -> None:
        self.n_bins = np.array([e.size + 1 for e in self.edges], dtype=np.intp)
        self.wide = np.ascontiguousarray(self.codes.T, dtype=np.intp)

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]


def bin_matrix(X: np.ndarray, n_bins: int = N_BINS, y: np.ndarray | None = None) -> BinnedMatrix:
    """Quantile-bin every column of X.

    When ``y`` is given, each column's quantile cuts are augmented with its
    Fayyad–Irani MDL cut points (supervised binning, computed once per fit).
    Pure quantile bins can straddle a class boundary — e.g. the ALM labeling
    thresholds — leaving nodes that no split can purify; the MDL cuts land
    exactly on strong class boundaries and eliminate that thrashing.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if not 2 <= n_bins <= 256:
        raise ValueError(f"n_bins must be in [2, 256], got {n_bins}")
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.uint8)
    edges: list[np.ndarray] = []
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    mdl_budget = 0
    y_sub: np.ndarray | None = None
    sub = slice(None)
    if y is not None:
        from repro.ml.discretize import mdl_cut_points

        y = np.asarray(y, dtype=int)
        n_classes = int(y.max()) + 1 if y.size else 1
        mdl_budget = max(0, min(32, 250 - n_bins))  # cap supervised cuts; stay in uint8
        # Cut-point *positions* stabilize with a couple thousand instances;
        # subsample deterministically so binning cost stays flat in n.
        step = max(1, n // 2000)
        sub = slice(None, None, step)
        y_sub = y[sub]
    for j in range(d):
        col = X[:, j]
        cuts = np.unique(np.quantile(col, qs))
        if y_sub is not None and mdl_budget:
            supervised = mdl_cut_points(col[sub], y_sub, n_classes)[:mdl_budget]
            if supervised:
                cuts = np.unique(np.concatenate([cuts, np.asarray(supervised)]))
        # Drop degenerate cuts equal to the max (they create empty top bins).
        cuts = cuts[cuts < col.max()] if col.size else cuts
        # side='left': code = #{cuts < x}, so "code <= b" ⟺ "x <= cuts[b]" —
        # the training-time routing must agree exactly with predict()'s
        # real-valued threshold test, including on tied values.
        codes[:, j] = np.searchsorted(cuts, col, side="left")
        edges.append(cuts)
    return BinnedMatrix(codes, edges)


@dataclass(frozen=True)
class HistSplit:
    feature: int
    bin_index: int  # go left when code <= bin_index
    threshold: float  # real-valued equivalent for predict()
    score: float
    n_left: int
    n_right: int


def best_hist_split(
    binned: BinnedMatrix,
    idx: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    feature_indices: np.ndarray,
    min_leaf: int = 1,
) -> HistSplit | None:
    """Best gini split over the node's instances ``idx``.

    ``y`` is the full label vector; node labels are ``y[idx]``.
    """
    y_node = y[idx]
    counts = np.bincount(y_node, minlength=n_classes)
    return split_node(binned, idx, y_node, counts, feature_indices, min_leaf)


def split_node(
    binned: BinnedMatrix,
    idx: np.ndarray,
    y_node: np.ndarray,
    counts: np.ndarray,
    feature_indices: np.ndarray,
    min_leaf: int = 1,
) -> HistSplit | None:
    """:func:`best_hist_split` for a caller that already holds the node's
    labels ``y_node = y[idx]`` and their class counts (the tree builder)."""
    n = idx.size
    if n < 2 * min_leaf:
        return None
    total = counts.astype(float)
    parent = 1.0 - float(((total / n) ** 2).sum())
    if parent <= 0.0:
        return None
    # Deep nodes usually contain a fraction of the classes; remapping to the
    # classes actually present keeps the O(bins × classes) histogram term
    # proportional to the node's own diversity, not the global class count.
    present = np.flatnonzero(counts)
    if present.size < counts.size:
        y_node = np.searchsorted(present, y_node)
        total = total[present]
    feats = np.asarray(feature_indices, dtype=np.intp)
    codes = binned.wide[feats[:, None], idx]  # (k, n): the node's one gather
    min_side = max(min_leaf, 1)  # an empty side is never a split
    if n <= 48:
        # Small nodes: the O(bins × classes) histogram dwarfs the O(n) scan;
        # an exact sweep over the node's own code values is cheaper and
        # yields the identical split decision.
        return _small_node_split(binned, feats, codes, y_node, total, min_side, parent)

    # Features are padded to the widest candidate's bin count.  A padded bin
    # is empty, so every cut at or past a feature's last real bin (a constant
    # feature's only bin included) leaves nothing on its right and is invalid.
    k, width, c = feats.size, int(binned.n_bins[feats].max(initial=1)), total.size
    key = (codes + (np.arange(k) * width)[:, None]) * c + y_node
    hist = np.bincount(key.ravel(), minlength=k * width * c).reshape(k, width, c)
    left = np.cumsum(hist.astype(float), axis=1)[:, :-1]  # counts with code <= b
    nl = left.sum(axis=2)
    found = _best_cut(left, nl, True, total, parent, min_side)
    if found is None:
        return None
    f, pos, gain = found
    feat, n_left = int(feats[f]), int(nl[f, pos])
    return HistSplit(feat, pos, float(binned.edges[feat][pos]), gain, n_left, n - n_left)


def _small_node_split(
    binned: BinnedMatrix, feats: np.ndarray, codes: np.ndarray, y_node: np.ndarray,
    total: np.ndarray, min_side: int, parent: float,
) -> HistSplit | None:
    """Exact gini sweep over a small node's own sorted code values."""
    n = y_node.size
    order = np.argsort(codes, axis=1, kind="stable")
    xs = np.take_along_axis(codes, order, axis=1)
    onehot = np.zeros((n, total.size))
    onehot[np.arange(n), y_node] = 1.0
    left = np.cumsum(onehot[order], axis=1)[:, :-1]
    nl = np.arange(1.0, n)  # cut p has p + 1 instances on its left
    found = _best_cut(left, nl, xs[:, 1:] != xs[:, :-1], total, parent, min_side)
    if found is None:
        return None
    f, pos, gain = found
    feat, bin_index = int(feats[f]), int(xs[f, pos])  # go left when code <= this value
    return HistSplit(feat, bin_index, float(binned.edges[feat][bin_index]), gain,
                     pos + 1, n - pos - 1)


def _best_cut(
    left: np.ndarray, nl: np.ndarray, allowed: np.ndarray | bool, total: np.ndarray,
    parent: float, min_side: int,
) -> tuple[int, int, float] | None:
    """(feature position, cut position, gini gain) of the best allowed cut
    that leaves ``min_side`` instances on each side.

    ``left`` is (features, cuts, classes): class counts left of each cut;
    ``nl`` its class sum, per cut or per (feature, cut).  Row-major argmax
    means that of equal gains the first feature, then the first cut, wins —
    what a per-feature loop keeping only strictly better splits picks.
    """
    n = total.sum()
    nr = n - nl
    valid = allowed & (nl >= min_side) & (nr >= min_side)
    if not valid.any():
        return None
    right = total - left
    with np.errstate(divide="ignore", invalid="ignore"):
        gl = 1.0 - ((left / nl[..., None]) ** 2).sum(axis=2)
        gr = 1.0 - ((right / nr[..., None]) ** 2).sum(axis=2)
        gain = np.where(valid, parent - (nl * gl + nr * gr) / n, -np.inf)
    f, pos = divmod(int(np.argmax(gain)), gain.shape[1])
    if not gain[f, pos] > 1e-12:
        return None
    return f, pos, float(gain[f, pos])
