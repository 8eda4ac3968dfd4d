"""Fayyad–Irani MDL supervised discretization.

The entropy-based feature rankers (InfoGain, GainRatio,
SymmetricalUncertainty) are defined on nominal attributes; Weka first
discretizes numeric attributes with the Fayyad & Irani (1993) method:
recursively split each attribute at the entropy-minimizing cut point and
accept the split only if its information gain passes the MDL criterion

    gain > [ log2(N - 1) + log2(3^k - 2) - k E + k1 E1 + k2 E2 ] / N

where k/k1/k2 count classes present in the parent/children and E/E1/E2 are
their entropies.

:func:`mdl_cuts` runs that recursion for every column of a matrix at once,
one depth level at a time: one sort, one class-count prefix table, then per
level one weighted-entropy pass over every open segment's candidates and one
MDL test over every segment.  Its entropies and gains are bit-identical to a
per-segment search (the per-row sums keep NumPy's own order), so it accepts
the same cuts; :func:`mdl_cut_points` is its one-column call.  The
per-segment recursion it replaced is ``tests/oracles/ml_hist.py``, and the
suites hold the live search to it cut for cut.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from repro.ml._split import leading_row_sums

#: Most candidate cells (candidate cuts × classes) one batched entropy pass
#: evaluates at once; a level with more is evaluated a run of segments at a
#: time.  It bounds each of the pass's transient arrays to 128 KiB, below
#: the prefix table of a classify matrix (≈ 0.6 MB).
MAX_CELLS = 16_384


def _weighted_child_entropy(left: np.ndarray, right: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Size-weighted entropy of the two children of each candidate cut.

    ``left`` and ``right`` are (cuts, classes): the class counts on each side
    of a cut of a segment of ``size`` instances; neither side is empty.
    """
    left = left.astype(float)
    right = right.astype(float)
    ones = np.ones(left.shape[1])  # class sums of integer counts are exact in any order
    nl = left @ ones
    nr = right @ ones
    pl = left / nl[:, None]
    pr = right / nr[:, None]
    el = -(pl * _log2_or_zero(pl)).sum(axis=1)
    er = -(pr * _log2_or_zero(pr)).sum(axis=1)
    return (nl * el + nr * er) / size


def _log2_or_zero(p: np.ndarray) -> np.ndarray:
    """``log2(p)``, and 0 where ``p`` is 0, so that ``p * _log2_or_zero(p)``
    is the entropy term ``p log2 p`` with 0 log 0 = 0.  NumPy's ``log2``
    gives each element the same bits whatever its neighbours, but a zero
    sends it down a slow path (≈ 4× on a block with 30% zeros), so zeros
    are taken as log2(1) = 0 instead."""
    return np.log2(np.where(p > 0, p, 1.0))


def _entropies(counts: np.ndarray) -> np.ndarray:
    """:func:`repro.ml._split.entropy_from_counts` of each row of
    ``counts``, bit for bit: it sums over the classes present only, so their
    terms are packed to the left, in class order, and summed in NumPy's
    order for a row of that many values."""
    counts = counts.astype(float)
    has = counts > 0
    p = counts / counts.sum(axis=1)[:, None]
    terms = p * _log2_or_zero(p)
    packed = np.take_along_axis(terms, np.argsort(~has, axis=1, kind="stable"), axis=1)
    return -leading_row_sums(packed, has.sum(axis=1))


def mdl_cuts(
    X: np.ndarray, y: np.ndarray, n_classes: int | None = None, max_depth: int = 8
) -> list[list[float]]:
    """Every column's accepted cut points, each list ascending.

    ``n_classes`` defaults to ``max(y) + 1``; a caller that discretizes a
    subsample passes the full label set's count.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ValueError(f"X must be 2-D with one label per row, got {X.shape} and {y.shape}")
    n, d = X.shape
    if not n:
        raise ValueError("cannot discretize empty input: X has no rows")
    if y.min() < 0:
        raise ValueError(f"class labels must be non-negative, got {int(y.min())}")
    c = int(y.max()) + 1 if n_classes is None else n_classes
    if y.max() >= c:
        raise ValueError(f"class label {int(y.max())} is not below n_classes={c}")
    if not d:
        return []

    # Every column sorted, laid end to end: flat position j*n + i is column
    # j's i-th smallest value.  Each step frees what the next does not read,
    # so that at most two (columns × rows) arrays of 8-byte items are alive.
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = X.T[np.arange(d)[:, None], order].ravel()
    labels = y.astype(np.min_scalar_type(c))[order].ravel()
    del order
    # Value groups (runs of one value) and their label range.
    starts = np.ones(xs.size, dtype=bool)
    starts[1:] = xs[1:] != xs[:-1]
    starts[::n] = True
    first = np.flatnonzero(starts)
    del starts
    lowest = np.minimum.reduceat(labels, first)
    highest = np.maximum.reduceat(labels, first)
    # Candidates are boundary points only: a value change where the groups on
    # either side are not both pure and of one class.  Fayyad & Irani (1993,
    # Theorem 1) show the entropy-minimizing cut of a segment is always one
    # (within a run of one class the weighted entropy is concave), so no
    # other value change can win a segment's search.  An interval runs from
    # one boundary point or column start to the next, and a segment is
    # always a run of whole intervals of one column.
    pure = lowest == highest
    column_start = first % n == 0
    keep = column_start.copy()
    keep[1:] |= ~(pure[:-1] & pure[1:] & (lowest[:-1] == lowest[1:]))
    edges = first[keep]
    column_row = np.flatnonzero(column_start[keep])
    del first, lowest, highest, pure, column_start, keep
    mids = 0.5 * (xs[edges - 1] + xs[edges])  # each row's cut value (not column starts)
    del xs
    # Row r of the prefix table counts the classes before interval r, so a
    # segment's or a cut's counts are a difference of two rows, and the
    # table holds one row per candidate, not per instance.
    n_rows = edges.size
    pos = np.append(edges, n * d)  # first flat position of each row
    key = np.repeat(np.arange(c, (n_rows + 1) * c, c), np.diff(pos))
    key += labels
    del labels
    counts = np.bincount(key, minlength=(n_rows + 1) * c)
    del key
    prefix = counts.astype(np.int32 if n * d < 2**31 else np.int64).reshape(n_rows + 1, c)
    del counts
    np.cumsum(prefix, axis=0, out=prefix)

    lo = column_row
    hi = np.append(column_row[1:], n_rows)
    found = []
    for _depth in range(max_depth):
        open_ = (pos[hi] - pos[lo] >= 4) & (hi - lo >= 2)
        lo, hi = lo[open_], hi[open_]
        if not lo.size:
            break
        cut, accepted = _search_level(prefix, pos, lo, hi)
        found.append(cut[accepted])
        # Both children of a segment take its place, so lo stays ascending.
        lo = np.column_stack([lo[accepted], cut[accepted]]).ravel()
        hi = np.column_stack([cut[accepted], hi[accepted]]).ravel()

    cut_rows = np.sort(np.concatenate(found)) if found else np.empty(0, dtype=np.intp)
    values = mids[cut_rows].tolist()
    out, at = [], 0
    for k in np.bincount(pos[cut_rows] // n, minlength=d).tolist():
        out.append(values[at:at + k])
        at += k
    return out


def _search_level(
    prefix: np.ndarray, pos: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each open segment ``[lo[s], hi[s])`` (prefix rows, ascending and
    disjoint)'s best cut row, and whether MDL accepts it.

    Every row strictly inside a segment is one of its candidates.  They are
    scored a run of whole segments at a time, each run within
    :data:`MAX_CELLS`; the MDL test then takes every segment at once.
    """
    size = pos[hi] - pos[lo]
    base = prefix[lo]
    total = prefix[hi] - base
    n_cand = hi - lo - 1
    offsets = [0, *accumulate(n_cand.tolist())]
    per_run = max(1, MAX_CELLS // prefix.shape[1])
    best, child = [], []
    a = 0
    while a < lo.size:
        b = max(a + 1, bisect_right(offsets, offsets[a] + per_run) - 1)
        first = np.array(offsets[a:b])
        seg = np.repeat(np.arange(b - a), n_cand[a:b])
        cand = np.arange(offsets[a], offsets[b]) + np.repeat(lo[a:b] + 1 - first, n_cand[a:b])
        left = prefix[cand] - base[a:b][seg]
        weighted = _weighted_child_entropy(left, total[a:b][seg] - left, size[a:b][seg])
        # Each segment's first minimum, as np.argmin picks it.
        low = np.minimum.reduceat(weighted, first - offsets[a])
        hit = np.flatnonzero(weighted == low[seg])
        best.append(cand[hit[np.searchsorted(seg[hit], np.arange(b - a))]])
        child.append(low)
        a = b
    cut = np.concatenate(best)
    left = prefix[cut] - base
    right = total - left
    e, e1, e2 = np.split(_entropies(np.concatenate([total, left, right])), 3)
    gain = e - np.concatenate(child)
    # The MDL test of every segment at once; its two logarithms stay
    # math.log2, as in the one-segment test.
    k, k1, k2 = (np.count_nonzero(t, axis=1) for t in (total, left, right))
    log_3k = np.array([math.log2(max(3.0**v - 2.0, 1.0)) for v in range(int(k.max()) + 1)])
    log_n = np.array([math.log2(v - 1) for v in size.tolist()])
    delta = log_3k[k] - (k * e - k1 * e1 - k2 * e2)
    return cut, (gain > 0) & (gain > (log_n + delta) / size)


def mdl_cut_points(
    x: np.ndarray, y: np.ndarray, n_classes: int, max_depth: int = 8
) -> list[float]:
    """All accepted cut points of one attribute, ascending: :func:`mdl_cuts`
    for one column."""
    x = np.asarray(x, dtype=float)
    if x.shape != np.shape(y):
        raise ValueError("x and y must have the same shape")
    return mdl_cuts(x[:, None], y, n_classes, max_depth)[0]


def discretize_column(x: np.ndarray, cuts: list[float]) -> np.ndarray:
    """Map values to bin indices given cut points (0..len(cuts))."""
    if not cuts:
        return np.zeros(np.asarray(x).shape[0], dtype=int)
    return np.searchsorted(np.asarray(cuts), np.asarray(x, dtype=float), side="right")


def mdl_discretize(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list[list[float]]]:
    """Discretize every column; returns (binned X, per-column cut points).

    Columns where MDL accepts no cut collapse to a single bin — exactly how
    Weka marks an attribute as uninformative (its InfoGain becomes 0).
    Refuses empty input and negative class labels (``ValueError``).
    """
    X = np.asarray(X, dtype=float)
    all_cuts = mdl_cuts(X, y)
    binned = np.empty(X.shape, dtype=int)
    for j, cuts in enumerate(all_cuts):
        binned[:, j] = discretize_column(X[:, j], cuts)
    return binned, all_cuts
