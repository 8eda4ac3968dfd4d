"""Feature extraction: the 22 classification features of a single pulse.

Sixteen base features are our reconstruction of the feature set of Devine
et al. (2016), computed over the single pulse's SPEs (the paper only
enumerates the six *new* features, Table 1; the base set is summary
statistics of the SNR/DM/time distributions plus trend-fit diagnostics —
see DESIGN.md).  The six Table 1 features are implemented exactly as
described:

==============  =============================================================
StartTime       arrival time of the first SPE in the cluster
StopTime        arrival time of the last SPE in the cluster
ClusterRank     SNR rank of the cluster among the observation's clusters
PulseRank       rank of this peak among the cluster's peaks by SNRMax
DMSpacing       trial-DM ladder step at the pulse's DM
SNRRatio        SNR of the first point in the peak over the maximum SNR
==============  =============================================================
"""

from __future__ import annotations

import numpy as np

from repro.core.regression import (
    bin_fit_residual_rows,
    bin_slopes,
    padded_blocks,
    row_sums,
    size_classes,
)

#: Canonical feature ordering used by every matrix in this repository.
FEATURE_NAMES: tuple[str, ...] = (
    # 16 base features (Devine et al. 2016 reconstruction)
    "NumSPEs",
    "MaxSNR",
    "MinSNR",
    "AvgSNR",
    "StdSNR",
    "SNRPeakDM",
    "DMRange",
    "AvgDM",
    "StdDM",
    "TimeRange",
    "PeakWidthDM",
    "NumPeaks",
    "MaxSlope",
    "MinSlope",
    "FitResidual",
    "SNRSkew",
    # 6 new features (Table 1)
    "StartTime",
    "StopTime",
    "ClusterRank",
    "PulseRank",
    "DMSpacing",
    "SNRRatio",
)


def _max_min(values: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> list[np.ndarray]:
    """Max and min of every run ``values[..., starts[i]:stops[i]]``; 0.0 for
    an empty run.

    Runs lie along the last axis, which carries one spare trailing cell so
    that a run may end at the last value.  ``reduceat`` takes a run's first
    value and reduces the rest, exactly as the run's own 1-D call does.
    Min and max go through here, not through a padded block: which of
    ``-0.0``/``0.0`` (or of two NaNs) wins depends on the SIMD lanes, so on
    the length of the call.
    """
    bounds = np.empty(2 * starts.size, dtype=np.intp)
    bounds[0::2], bounds[1::2] = starts, stops
    empty = stops == starts
    return [
        np.where(empty, 0.0, ufunc.reduceat(values, bounds, axis=-1)[..., ::2])
        for ufunc in (np.maximum, np.minimum)
    ]


def extract_segment_features(
    dms: np.ndarray,
    snrs: np.ndarray,
    times: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    hints: np.ndarray,
    binsizes: np.ndarray,
) -> np.ndarray:
    """The segment-derived feature columns of many pulses as an (n, 22) matrix.

    All pulses of an observation at once: pulse ``i`` is
    ``[starts[i], stops[i])`` of the flat DM-sorted ``dms``/``snrs``/``times``
    columns, ``hints[i]`` the absolute index of its peak bin's first SPE and
    ``binsizes[i]`` the bin size its cluster was searched with.  The six
    contextual columns (NumPeaks, StartTime, StopTime, ClusterRank,
    PulseRank, DMSpacing) are the caller's and come back zero.

    Bit-identical to the per-pulse oracle (``tests/oracles/record_path.py``)
    by construction, though segments of unequal length share their NumPy
    calls.  They are gathered into C-contiguous ``(pulses, width)`` blocks
    (:func:`~repro.core.regression.padded_blocks`) padded with ``-0.0``, the
    exact additive identity, and each size class's rows are summed over the
    class width (:func:`~repro.core.regression.row_sums`), so every row's
    pairwise ``sum`` — and ``mean``, the sum over the true length — is the
    1-D call's.  ``std`` and the skew are written out as NumPy's ``_var``
    sequence with the padding re-zeroed, and ``argmax`` (first maximum)
    sees ``-inf`` padding.  Min and max keep each run's own length: one
    ``reduceat`` over all pulses (:func:`_max_min`).  The trend diagnostics
    are one ragged ``bin_slopes`` + residual per block, each row at its own
    bin size.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lengths = stops - starts
    if np.any(lengths < 1):
        raise ValueError("cannot extract features from an empty pulse")
    hints = np.clip(np.asarray(hints, dtype=np.int64) - starts, 0, lengths - 1)
    binsizes = np.asarray(binsizes, dtype=np.int64)
    # One spare -0.0 cell after each column: where every padding cell and
    # the end of the last run point.
    columns = np.stack([np.asarray(c, dtype=float) for c in (snrs, dms, times)])
    columns = np.append(columns, np.full((3, 1), -0.0), axis=1)
    snrs, dms = columns[0], columns[1]
    pad = snrs.size - 1
    out = np.zeros((starts.size, len(FEATURE_NAMES)), dtype=np.float64)
    out[:, 0] = lengths
    (max_snr, max_dm, max_t), (min_snr, min_dm, min_t) = _max_min(columns, starts, stops)
    out[:, 1], out[:, 2] = max_snr, min_snr
    out[:, 6] = max_dm - min_dm
    out[:, 9] = max_t - min_t
    with np.errstate(divide="ignore", invalid="ignore"):
        # SNRRatio: first point of the peak over the maximum.
        out[:, 21] = np.where(max_snr > 0, snrs[starts + hints] / max_snr, 0.0)

    for sel, width in padded_blocks(lengths):
        n = lengths[sel]
        inside = np.arange(width) < n[:, None]
        gather = np.where(inside, starts[sel][:, None] + np.arange(width), pad)
        snr = snrs[gather]
        dm = dms[gather]
        rows_i = np.arange(sel.size)

        # Mean and std of SNR and DM in NumPy's own sequence (``_mean``,
        # ``_var``): sum, divide by the true count; subtract the mean,
        # re-zero the padding to -0.0, square, sum, divide, take the root.
        classes = size_classes(n)
        cells = np.stack([snr, dm], axis=1)
        means = row_sums(cells, classes) / n[:, None]
        deviation = np.where(inside[:, None], cells - means[..., None], -0.0)
        spread = np.sqrt(row_sums(deviation * deviation, classes) / n[:, None])
        (mean_snr, mean_dm), (std_snr, std_dm) = means.T, spread.T
        out[sel, 3], out[sel, 4] = mean_snr, std_snr
        out[sel, 7], out[sel, 8] = mean_dm, std_dm
        out[sel, 5] = dm[rows_i, np.where(inside, snr, -np.inf).argmax(axis=1)]

        # PeakWidthDM: DM extent where the profile stays >= half its max
        # (0.0 where no point does: an all-negative or NaN maximum).
        above = inside & (snr >= (out[sel, 1] / 2.0)[:, None])
        n_above = above.sum(axis=1)
        ends = np.cumsum(n_above)
        hi, lo = _max_min(np.append(dm[above], 0.0), ends - n_above, ends)
        out[sel, 10] = hi - lo

        # SNRSkew: Fisher-Pearson skewness, 0 for degenerate samples
        # (fewer than 3 points, or a spread of at most 1e-12).
        flat = (n < 3) | (std_snr <= 1e-12)
        z = deviation[:, 0] / np.where(flat, 1.0, std_snr)[:, None]
        skew = row_sums(np.where(inside, z**3, -0.0), classes) / n
        out[sel, 15] = np.where(flat, 0.0, skew)

        slopes, edges = bin_slopes(dm, snr, binsizes[sel], n)
        has_bins = edges[1] > 0
        n_bins = has_bins.sum(axis=1)
        ends = np.cumsum(n_bins)
        out[sel, 12], out[sel, 13] = _max_min(np.append(slopes[has_bins], 0.0), ends - n_bins, ends)
        out[sel, 14] = bin_fit_residual_rows(dm, snr, slopes, edges)
    return out
