"""Per-bin least-squares trends for the Algorithm 1 state machine.

Each bin's trend is the slope ``b`` of the ordinary least squares fit
``Y_i = a + b X_i + e_i`` over the bin's points, with X the dispersion
measure and Y the SNR (the peaks live in SNR-vs-DM space).  The whole
profile's bin slopes are computed in one vectorized pass (no per-bin Python
loops) because the search runs once per cluster and clusters number in the
millions.
"""

from __future__ import annotations

import numpy as np


def bin_edges(n: int, binsize: int) -> list[tuple[int, int]]:
    """Half-open index ranges of consecutive bins over ``n`` points.

    Bins advance by ``binsize`` but *include one extra boundary point*
    (``[start, start + binsize + 1)``), so adjacent bins share an endpoint
    and the trend sequence is continuous.  With ``binsize == 1`` this is
    exactly the paper's "connect the dots": each bin is one pair of points.
    """
    if binsize < 1:
        raise ValueError(f"binsize must be >= 1, got {binsize}")
    edges: list[tuple[int, int]] = []
    start = 0
    while start + 1 < n:
        stop = min(start + binsize + 1, n)
        edges.append((start, stop))
        start += binsize
    return edges


def bin_slopes(x: np.ndarray, y: np.ndarray, binsize: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Trend slope of every bin, plus the bin index ranges.

    Works along the last axis: ``x``/``y`` are one profile, or a C-contiguous
    ``(rows, n)`` matrix of equal-length profiles whose rows come out
    bit-identical to their 1-D calls (a row's ``mean``/``cumsum`` groups its
    additions by the row length alone).  Per-bin means and cross-products
    come from prefix sums instead of a Python loop per bin.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    edges = bin_edges(x.shape[-1], binsize)
    if not edges:
        return np.empty(x.shape[:-1] + (0,), dtype=float), edges
    # Center globally before the cumulative sums: slopes are invariant to
    # shifts of either axis, and the prefix-sum formulation suffers
    # catastrophic cancellation when |values| >> per-bin spread.
    x = x - x.mean(axis=-1, keepdims=True)
    y = y - y.mean(axis=-1, keepdims=True)
    starts = np.array([e[0] for e in edges])
    stops = np.array([e[1] for e in edges])
    counts = (stops - starts).astype(float)

    prefix = np.zeros((4,) + x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum([x, y, x * x, x * y], axis=-1, out=prefix[..., 1:])
    sx, sy, sxx, sxy = prefix[..., stops] - prefix[..., starts]
    denom = sxx - sx * sx / counts
    numer = sxy - sx * sy / counts
    slopes = np.zeros(denom.shape, dtype=float)
    ok = denom > 1e-12
    slopes[ok] = numer[ok] / denom[ok]
    return slopes, edges


def bin_fit_residual_rows(
    x: np.ndarray,
    y: np.ndarray,
    slopes: np.ndarray,
    edges: list[tuple[int, int]],
) -> np.ndarray:
    """The FitResidual feature of every row of ``(rows, n)`` matrices at once.

    Mean absolute OLS residual across bins — how well piecewise-linear
    trends describe the profile: real single pulses fit cleanly, noise
    clusters do not.  ``slopes``/``edges`` are what :func:`bin_slopes`
    returned for the same matrices.  Bit-identical to a loop over profiles
    and bins (``tests/oracles/record_path.py``): the bins of one width
    (all of them, except possibly a narrower last one) gather into a
    C-contiguous ``(rows, bins, width)`` block whose last-axis ``mean``/
    ``sum`` are the same pairwise sums as the per-bin calls, and per-bin
    totals accumulate in bin order.
    """
    total = np.zeros(x.shape[0])
    if not edges:
        return total
    width = edges[0][1] - edges[0][0]
    full = len(edges) if edges[-1][1] - edges[-1][0] == width else len(edges) - 1
    for lo, hi in ((0, full), (full, len(edges))):
        if lo == hi:
            continue
        idx = np.array([e[0] for e in edges[lo:hi]])[:, None] + np.arange(
            edges[lo][1] - edges[lo][0]
        )
        xs = np.take(x, idx, axis=1)
        ys = np.take(y, idx, axis=1)
        s = slopes[:, lo:hi]
        intercepts = ys.mean(axis=2) - s * xs.mean(axis=2)
        per_bin = np.abs(ys - (intercepts[..., None] + s[..., None] * xs)).sum(axis=2)
        for column in per_bin.T:
            total += column
    return total / sum(stop - start for start, stop in edges)
