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

from repro.core.regression import bin_fit_residual_rows, bin_slopes

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
    by construction.  Segments are grouped by (length, binsize) and gathered
    into C-contiguous ``(group, L)`` matrices: an ``axis=1`` reduction then
    applies the same pairwise summation to each row as the 1-D call on that
    segment would (summation grouping depends only on the row length, so
    fusing *equal-length* segments is safe where fusing unequal ones is
    not), and min/max/argmax are order-independent.  The trend diagnostics
    are one row-wise ``bin_slopes`` + residual per group.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(stops, dtype=np.int64) - starts
    hints = np.clip(np.asarray(hints, dtype=np.int64) - starts, 0, lengths - 1)
    binsizes = np.asarray(binsizes, dtype=np.int64)
    out = np.zeros((starts.size, len(FEATURE_NAMES)), dtype=np.float64)
    out[:, 0] = lengths

    # One group per (length, binsize), keyed as one integer: the reductions
    # need equal lengths, the trend columns equal bins as well.
    radix = binsizes.max(initial=0) + 1
    keys = lengths * radix + binsizes
    for key in np.unique(keys).tolist():
        length, binsize = divmod(key, radix)
        sel = np.nonzero(keys == key)[0]
        gather = starts[sel][:, None] + np.arange(length)
        snr = snrs[gather]
        dm = dms[gather]
        t = times[gather]
        rows_i = np.arange(sel.size)

        max_snr = snr.max(axis=1)
        peak_idx = snr.argmax(axis=1)
        out[sel, 1] = max_snr
        out[sel, 2] = snr.min(axis=1)
        mean_snr = snr.mean(axis=1)
        std_snr = snr.std(axis=1)
        out[sel, 3] = mean_snr
        out[sel, 4] = std_snr
        out[sel, 5] = dm[rows_i, peak_idx]
        out[sel, 6] = dm.max(axis=1) - dm.min(axis=1)
        out[sel, 7] = dm.mean(axis=1)
        out[sel, 8] = dm.std(axis=1)
        out[sel, 9] = t.max(axis=1) - t.min(axis=1)

        # PeakWidthDM: DM extent where the profile stays >= half its max.
        # ±inf fillers never win the min/max unless the mask is empty
        # (possible only for all-negative SNR segments, which map to 0.0).
        above = snr >= (max_snr / 2.0)[:, None]
        lo = np.where(above, dm, np.inf).min(axis=1)
        hi = np.where(above, dm, -np.inf).max(axis=1)
        out[sel, 10] = np.where(above.any(axis=1), hi - lo, 0.0)

        # SNRSkew: Fisher-Pearson skewness, 0 for degenerate samples
        # (fewer than 3 points, or no spread).
        if length >= 3:
            safe_std = np.where(std_snr > 1e-12, std_snr, 1.0)
            z = (snr - mean_snr[:, None]) / safe_std[:, None]
            out[sel, 15] = np.where(
                std_snr > 1e-12, (z**3).mean(axis=1), 0.0
            )

        # SNRRatio: first point of the peak over the maximum.
        first = snr[rows_i, hints[sel]]
        with np.errstate(divide="ignore", invalid="ignore"):
            out[sel, 21] = np.where(max_snr > 0, first / max_snr, 0.0)

        if length >= 2:
            slopes, edges = bin_slopes(dm, snr, binsize)
            out[sel, 12] = slopes.max(axis=1)
            out[sel, 13] = slopes.min(axis=1)
            out[sel, 14] = bin_fit_residual_rows(dm, snr, slopes, edges)
    return out
