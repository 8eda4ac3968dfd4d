"""Per-bin least-squares trends for the Algorithm 1 state machine.

Each bin's trend is the slope ``b`` of the ordinary least squares fit
``Y_i = a + b X_i + e_i`` over the bin's points, with X the dispersion
measure and Y the SNR (the peaks live in SNR-vs-DM space).  The whole
profile's bin slopes are computed in one vectorized pass (no per-bin Python
loops), and many profiles share one pass, because clusters number in the
millions and most hold a handful of SPEs.

Profiles of unequal length share one call through *size classes*.  NumPy's
pairwise sum adds a row of fewer than 128 elements in 8-wide unrolled
blocks followed by a sequential tail, so trailing ``-0.0`` cells (the exact
additive identity) leave ``sum``, ``mean`` (the sum over the true length)
and ``cumsum`` bit-identical as long as the padded width stays in the row's
block: a row of ``n < 8`` pads to 7, a row of ``8k <= n < 128`` to
``8k + 7`` (:func:`size_class`).  Rows of 128 or more keep their own width.
Only the sums care: a block of ragged rows is as wide as its widest class,
every elementwise step and ``cumsum`` runs over the whole block, and each
class's rows are summed over their class width (:func:`row_sums`).
"""

from __future__ import annotations

import numpy as np

#: Rows at least this long are summed as two recursive halves whose split
#: depends on the length, so they cannot be padded.
_PAIRWISE_BLOCK = 128
#: Cells of one padded block: size classes share a block (as wide as its
#: widest class) while it stays under this, so a block's arrays stay small
#: and cache-resident and padding a short row to the block width costs
#: less than another round of NumPy calls.  A class that alone exceeds it
#: is a block of its own.
_BLOCK_CELLS = 1 << 12


def size_class(n: np.ndarray) -> np.ndarray:
    """Width a row of ``n`` elements pads to with ``-0.0`` and still sums the
    same bits: ``n | 7`` below 128 (7, 15, …, 127), ``n`` itself from 128."""
    n = np.asarray(n)
    return np.where(n < _PAIRWISE_BLOCK, n | 7, n)


def size_classes(lengths: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """``(rows, width)`` of every size class among ``lengths``, narrowest first."""
    widths = size_class(lengths)
    if widths.size and widths.min() == widths.max():
        return [(np.arange(widths.size), int(widths[0]))]
    return [(np.nonzero(widths == w)[0], w) for w in np.unique(widths).tolist()]


def padded_blocks(lengths: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Rows of these lengths grouped into padded blocks: ``(rows, width)``.

    Size classes are taken narrowest first and packed into one block while
    ``rows x widest class`` stays within ``_BLOCK_CELLS``; row indices come
    out ascending within each block.
    """
    blocks: list[tuple[list[np.ndarray], int]] = []
    n_rows = 0
    for rows, width in size_classes(lengths):
        if not blocks or (n_rows + rows.size) * width > _BLOCK_CELLS:
            blocks.append(([], width))
            n_rows = 0
        blocks[-1] = (blocks[-1][0] + [rows], width)
        n_rows += rows.size
    return [
        (classes[0] if len(classes) == 1 else np.sort(np.concatenate(classes)), width)
        for classes, width in blocks
    ]


def row_sums(cells: np.ndarray, classes: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Each row's sum over its first ``n`` cells, bit for bit the 1-D
    ``sum`` of those cells.

    ``cells`` is ``(rows, ..., width)``, summed along the last axis, with
    ``-0.0`` past every row's length ``n``; ``classes`` is
    :func:`size_classes` of the lengths.  Each class's rows are gathered
    over the class width into one C-contiguous block, so every row gets
    the pairwise grouping of its own length.
    """
    if len(classes) == 1 and classes[0][1] >= cells.shape[-1]:
        return cells.sum(axis=-1)
    out = np.empty(cells.shape[:-1])
    for rows, width in classes:
        out[rows] = cells[rows, ..., :width].sum(axis=-1)
    return out


def bin_edges(n: int, binsize: int) -> list[tuple[int, int]]:
    """Half-open index ranges of consecutive bins over ``n`` points.

    Bins advance by ``binsize`` but *include one extra boundary point*
    (``[start, start + binsize + 1)``), so adjacent bins share an endpoint
    and the trend sequence is continuous.  With ``binsize == 1`` this is
    exactly the paper's "connect the dots": each bin is one pair of points.
    """
    starts, stops = _row_bins(np.array([n]), np.array([binsize]))
    return list(zip(starts[0].tolist(), stops[0].tolist()))


def _row_bins(lengths: np.ndarray, binsizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`bin_edges` of every row as ``(rows, bins)`` start/stop arrays.

    Row ``r`` has ``ceil((lengths[r] - 1) / binsizes[r])`` bins; the cells
    after them are empty bins (``start == stop == 0``).
    """
    if np.any(binsizes < 1):
        raise ValueError(f"binsize must be >= 1, got {binsizes.min()}")
    n_bins = np.where(lengths >= 2, (lengths - 2) // binsizes + 1, 0)
    j = np.arange(n_bins.max(initial=0))
    starts = j * binsizes[:, None]
    stops = np.minimum(starts + binsizes[:, None] + 1, lengths[:, None])
    valid = j < n_bins[:, None]
    return np.where(valid, starts, 0), np.where(valid, stops, 0)


def bin_slopes(
    x: np.ndarray,
    y: np.ndarray,
    binsize: int | np.ndarray,
    lengths: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Trend slope of every bin, plus the bins' ``(starts, stops)`` indices.

    ``x``/``y`` are one profile, or a ``(rows, width)`` block of profiles.
    In a block, row ``r`` holds ``lengths[r]`` points (all ``width`` when
    ``lengths`` is None) followed by ``-0.0`` padding, and is binned with
    ``binsize`` (one int, or one per row): one size class already mixes
    bin sizes, e.g. class 15 holds n = 8–11 at bin size 1 and n = 12–15 at
    bin size 2.  Slopes and edges come back ``(rows, bins)``; a row's cells
    after its own bins are empty (slope 0, start == stop == 0).  Each row is
    bit-identical to its unpadded 1-D call: the global centring is the
    row's :func:`row_sums` over its size class divided by the true length,
    and the per-bin means and cross-products are differences of sequential
    prefix sums, which padding after the row cannot reach.
    """
    x = np.asarray(x, dtype=float)
    block, y = np.atleast_2d(x, np.asarray(y, dtype=float))
    lengths = np.full(block.shape[0], x.shape[-1]) if lengths is None else np.asarray(lengths)
    starts, stops = _row_bins(lengths, np.full(lengths.shape, binsize, dtype=np.int64))
    shape = x.shape[:-1] + starts.shape[1:]
    if not starts.size:
        return np.zeros(shape), (starts.reshape(shape), stops.reshape(shape))
    # Center globally before the cumulative sums: slopes are invariant to
    # shifts of either axis, and the prefix-sum formulation suffers
    # catastrophic cancellation when |values| >> per-bin spread.
    xy = np.stack([block, y], axis=1)
    sums = row_sums(xy, size_classes(lengths))
    xc, yc = (xy - sums[..., None] / np.maximum(lengths, 1)[:, None, None]).transpose(1, 0, 2)
    # An empty bin sums to exactly 0 (prefix[0] - prefix[0]), so its denom
    # is 0 and its slope stays 0.
    counts = np.maximum(stops - starts, 1).astype(float)

    prefix = np.zeros((4,) + block.shape[:-1] + (block.shape[-1] + 1,))
    np.cumsum([xc, yc, xc * xc, xc * yc], axis=-1, out=prefix[..., 1:])
    at = (np.arange(block.shape[0]) * prefix.shape[-1])[:, None]
    flat = prefix.reshape(4, -1)
    sx, sy, sxx, sxy = np.take(flat, at + stops, axis=1) - np.take(flat, at + starts, axis=1)
    denom = sxx - sx * sx / counts
    numer = sxy - sx * sy / counts
    slopes = np.zeros(denom.shape, dtype=float)
    ok = denom > 1e-12
    slopes[ok] = numer[ok] / denom[ok]
    return slopes.reshape(shape), (starts.reshape(shape), stops.reshape(shape))


def bin_fit_residual_rows(
    x: np.ndarray,
    y: np.ndarray,
    slopes: np.ndarray,
    edges: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """The FitResidual feature of every row of a ``(rows, width)`` block.

    Mean absolute OLS residual across bins — how well piecewise-linear
    trends describe the profile: real single pulses fit cleanly, noise
    clusters do not.  ``slopes``/``edges`` are what :func:`bin_slopes`
    returned for the same block, so rows may be ragged and mix bin sizes.
    Bit-identical to a loop over profiles and bins
    (``tests/oracles/record_path.py``): the bins of the block are gathered
    as rows of their own, ``-0.0`` past each bin's points, and summed with
    :func:`row_sums`, so every per-bin ``mean``/``sum`` is the per-bin
    call's; per-bin totals then accumulate in bin order (a sequential
    ``cumsum``, empty bins adding ``0.0``).
    """
    starts, stops = edges
    counts = stops - starts
    per_bin = np.zeros(counts.shape)
    width = np.shape(x)[-1]
    # One trailing -0.0 cell: the gather index of every padding cell.
    flat_x, flat_y = (np.append(np.ravel(v), -0.0) for v in (x, y))
    row, col = np.nonzero(counts)
    c = counts[row, col]
    first = row * width + starts[row, col]
    s = slopes[row, col]
    for bins, w in padded_blocks(c):
        n = c[bins]
        inside = np.arange(w) < n[:, None]
        gather = np.where(inside, first[bins, None] + np.arange(w), flat_x.size - 1)
        xs, ys = flat_x[gather], flat_y[gather]
        classes = size_classes(n)
        means = row_sums(np.stack([xs, ys], axis=1), classes) / n[:, None]
        intercepts = means[:, 1] - s[bins] * means[:, 0]
        residual = np.abs(ys - (intercepts[:, None] + s[bins, None] * xs))
        per_bin[row[bins], col[bins]] = row_sums(np.where(inside, residual, -0.0), classes)
    total = per_bin.cumsum(axis=1)[:, -1] if per_bin.shape[1] else per_bin.sum(axis=1)
    return total / np.maximum(counts.sum(axis=1), 1)
