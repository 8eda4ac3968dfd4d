"""Histogram-based split finding for the forest's hot path.

Exact split search costs O(n·k) per feature per node in vectorized NumPy
(class-count prefix sums), which makes multiclass trees artificially
expensive relative to binary ones.  Histogram splitting — pre-bin each
feature into ≤64 quantile bins once per fit, then build a (bins × classes)
count table per node — costs O(n) + O(bins·k) per feature per node, so the
class count only touches the tiny histogram, not the instance dimension.
This matches the cost profile of classical learners (Weka's per-node scan)
and of modern gradient-boosting systems.

The forest searches a whole wave of nodes (one per tree) in one pass
(:func:`split_nodes`): one gather of every node's candidate codes, one
``bincount`` into a (node, slot, bin, class) table, one ``cumsum``, one gini
evaluation over the occupied bins, one row-major ``argmax`` per node and one
partition of every node's instances — the NumPy call count depends neither
on how many features were drawn nor on how many nodes the wave holds.  The
gains are bit-identical to a per-node search: the class-axis sums keep
NumPy's own summation order (:func:`repro.ml._split.leading_row_sums`).
:func:`best_hist_split` is the one-node call.  The per-feature loop and the
tree-at-a-time builder this replaced are ``tests/oracles/ml_hist.py``; the
suites hold the live code to them field for field and node for node, ties
included.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.ml._split import leading_row_sums
from repro.ml.discretize import mdl_cuts

#: Default number of histogram bins per feature.
N_BINS = 64
#: Most instance codes plus histogram cells one batched split search
#: handles at once; a larger wave is searched and partitioned in chunks of
#: nodes.  It bounds the search's transient arrays to a few hundred KiB each
#: (a 20-tree fit on a classify fold peaks at ≈ 2 MB traced) while a typical
#: wave of small nodes stays one or two chunks.
MAX_CODES = 48_000


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
    if not n:  # np.quantile has no answer; the same error with or without y
        raise ValueError("cannot discretize empty input: X has no rows")
    codes = np.empty((n, d), dtype=np.uint8)
    edges: list[np.ndarray] = []
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    mdl_budget = max(0, min(32, 250 - n_bins))  # cap supervised cuts; stay in uint8
    supervised: list[list[float]] = [[]] * d
    if y is not None and mdl_budget:
        y = np.asarray(y, dtype=int)
        # Cut-point *positions* stabilize with a couple thousand instances;
        # subsample deterministically so binning cost stays flat in n.
        step = max(1, n // 2000)
        n_classes = int(y.max()) + 1 if y.size else 1
        supervised = mdl_cuts(X[::step], y[::step], n_classes)
    for j in range(d):
        col = X[:, j]
        cuts = np.unique(np.quantile(col, qs))
        if supervised[j]:
            cuts = np.unique(np.concatenate([cuts, supervised[j][:mdl_budget]]))
        # Drop degenerate cuts equal to the max (they create empty top bins).
        cuts = cuts[cuts < col.max()]
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


class NodeSplit(NamedTuple):
    """A node's best split, and the instances (in the node's order) and
    class counts it sends to each side."""

    split: HistSplit
    left: np.ndarray
    right: np.ndarray
    left_counts: np.ndarray
    right_counts: np.ndarray


def best_hist_split(
    binned: BinnedMatrix,
    idx: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    feature_indices: np.ndarray,
    min_leaf: int = 1,
) -> HistSplit | None:
    """Best gini split over the node's instances ``idx``: :func:`split_nodes`
    for one node.

    ``y`` is the full label vector; node labels are ``y[idx]``.
    """
    idx = np.asarray(idx, dtype=np.intp)
    counts = np.bincount(y[idx], minlength=n_classes)
    feats = np.asarray(feature_indices, dtype=np.intp).reshape(1, -1)
    found = split_nodes(binned, y, [idx], feats, counts[None, :], min_leaf)[0]
    return None if found is None else found.split


def split_nodes(
    binned: BinnedMatrix,
    y: np.ndarray,
    idxs: list[np.ndarray],
    feats: np.ndarray,
    counts: np.ndarray,
    min_leaf: int = 1,
) -> list[NodeSplit | None]:
    """Best gini split of each node, all nodes searched and partitioned
    together.

    Node ``j`` holds the instances ``idxs[j]``, whose class counts are
    ``counts[j]`` (``(nodes, classes)``), and draws the candidate features
    ``feats[j]`` (``(nodes, k)``; every node draws as many).  ``y`` is the
    full label vector.  Nodes are taken a chunk at a time, so that no call
    gathers more than about :data:`MAX_CODES` codes and histogram cells.
    """
    m, k = feats.shape
    if not m or not k:
        return [None] * m
    # Deep nodes usually hold a fraction of the classes; searching over the
    # classes actually present keeps the O(bins × classes) histogram term
    # proportional to the node's own diversity, not the global class count.
    has = counts > 0
    present = has.sum(axis=1)
    classes = present.tolist()
    bins = binned.n_bins[feats].max(axis=1).tolist()
    out: list[NodeSplit | None] = []
    for lo, hi in _chunks([k * i.size for i in idxs], [k * b for b in bins], classes):
        out += _split_chunk(binned, y, idxs[lo:hi], feats[lo:hi], counts[lo:hi], has[lo:hi],
                            present[lo:hi], max(bins[lo:hi]), max(classes[lo:hi]), min_leaf)
    return out


def _chunks(codes: list[int], bins: list[int], classes: list[int]):
    """(lo, hi) runs of consecutive nodes whose codes plus histogram cells
    stay within :data:`MAX_CODES` (a node over it alone is its own run).

    A run's histogram pads every node to the run's largest ``bins`` and
    ``classes``, so it holds (run length × both maxima) cells.
    """
    lo, load, most_bins, most_classes = 0, 0, 0, 0
    for j, (n, b, c) in enumerate(zip(codes, bins, classes)):
        cells = (j + 1 - lo) * max(most_bins, b) * max(most_classes, c)
        if j > lo and load + n + cells > MAX_CODES:
            yield lo, j
            lo, load, most_bins, most_classes = j, 0, 0, 0
        load, most_bins, most_classes = load + n, max(most_bins, b), max(most_classes, c)
    yield lo, len(codes)


def _split_chunk(
    binned: BinnedMatrix, y: np.ndarray, idxs: list[np.ndarray], feats: np.ndarray,
    counts: np.ndarray, has: np.ndarray, present: np.ndarray, width: int, c: int,
    min_leaf: int,
) -> list[NodeSplit | None]:
    """:func:`split_nodes` over one chunk: one gather, one ``bincount`` into a
    (node, slot, bin, class) table, one ``cumsum``, one gini evaluation over
    the occupied bins and one partition of every node's instances."""
    m, k = feats.shape
    n_classes = counts.shape[1]
    sizes = np.array([i.size for i in idxs])
    rows = np.concatenate(idxs)
    # Slots are padded to the chunk's widest candidate and the present classes
    # to its most diverse node.  A padded bin is empty, so every cut at or
    # past a feature's last real bin (a constant feature's only bin included)
    # leaves nothing on its right and is invalid; a padded class is zero in
    # every count.  Each label becomes its rank among its node's classes.
    # Per-node values reach their rows by ``repeat``, far cheaper than a
    # gather by owner index.
    cells = width * c  # one slot's histogram
    rank = has @ _ranks_below(n_classes)
    label_key = (rank + np.arange(0, m * k * cells, k * cells)[:, None]).ravel()
    key = binned.wide[feats.T.repeat(sizes, axis=1), rows]  # (k, rows): the one gather
    key *= c
    key += np.arange(0, k * cells, cells)[:, None]
    key += label_key[np.arange(0, m * n_classes, n_classes).repeat(sizes) + y[rows]]
    hist = np.bincount(key.ravel(), minlength=m * k * cells)
    hist = hist.reshape(m * k, width, c).astype(float)
    cum = np.cumsum(hist, axis=1)  # class counts with code <= b
    ones = np.ones(c)  # class sums of integer counts are exact in any order
    n_left = cum @ ones
    n_right = sizes.repeat(k)[:, None] - n_left
    # Only a cut at an occupied bin is scored: a cut at an empty bin has the
    # same left side as the occupied bin below it, which comes first and so
    # wins any tie.  The last occupied bin leaves nothing on its right.
    min_side = max(min_leaf, 1)  # an empty side is never a split
    valid = (hist @ ones > 0) & (n_left >= min_side) & (n_right >= min_side)
    cell = valid.ravel().nonzero()[0]
    slot = cell // width
    node = slot // k
    left = cum.reshape(-1, c)[cell]
    right = cum[slot, -1] - left
    nl, nr = n_left.ravel()[cell], n_right.ravel()[cell]
    parent = 1.0 - ((counts / sizes[:, None]) ** 2).sum(axis=1)
    classes = present[node]
    gl = 1.0 - leading_row_sums((left / nl[:, None]) ** 2, classes)
    gr = 1.0 - leading_row_sums((right / nr[:, None]) ** 2, classes)
    gain = np.empty((m, k * width))
    gain.fill(-np.inf)
    gain.ravel()[cell] = parent[node] - (nl * gl + nr * gr) / sizes[node]
    # Row-major argmax: of equal gains the first slot, then the first cut,
    # wins — what a per-feature loop keeping only strictly better splits picks.
    # A node with no valid cut scores -inf; a pure one (parent 0) scores 0.
    best = gain.argmax(axis=1)
    score = gain.max(axis=1)
    found = score > 1e-12
    # Every node's rows are routed by its best cut, found or not.
    nodes = np.arange(m)
    best_slot, cut = np.divmod(best, width)
    feat = feats[nodes, best_slot]
    won = n_left.reshape(m, k * width)[nodes, best]
    go_left = binned.wide[feat.repeat(sizes), rows] <= cut.repeat(sizes)
    left_rows, right_rows = rows[go_left], rows[~go_left]
    left_counts = cum.reshape(m, k * width, c)[nodes[:, None], best[:, None],
                                                np.minimum(rank, c - 1)]
    left_counts = (left_counts * has).astype(np.intp)
    right_counts = counts - left_counts
    out: list[NodeSplit | None] = []
    lo_left = lo_right = 0
    for j, (ok, f, b, s, n, n_l) in enumerate(zip(
        found.tolist(), feat.tolist(), cut.tolist(), score.tolist(), sizes.tolist(),
        won.tolist(),
    )):
        n_l = int(n_l)
        hi_left, hi_right = lo_left + n_l, lo_right + n - n_l
        if ok:
            split = HistSplit(f, b, float(binned.edges[f][b]), s, n_l, n - n_l)
            # Copies, so that a pending child holds its own rows, not the chunk.
            out.append(NodeSplit(split, left_rows[lo_left:hi_left].copy(),
                                 right_rows[lo_right:hi_right].copy(),
                                 left_counts[j], right_counts[j]))
        else:
            out.append(None)
        lo_left, lo_right = hi_left, hi_right
    return out


@functools.lru_cache(maxsize=None)
def _ranks_below(n_classes: int) -> np.ndarray:
    """(classes, classes) 0/1 matrix with ones where row < column: a node's
    present-class mask times it counts the present classes below each."""
    out = np.tri(n_classes, k=-1, dtype=np.intp).T
    out.flags.writeable = False  # shared by every caller
    return out
