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

from dataclasses import dataclass, fields

import numpy as np

from repro.core.regression import bin_fit_residual, bin_fit_residual_rows, bin_slopes

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


@dataclass(frozen=True)
class PulseFeatures:
    """One single pulse's feature vector, with named access."""

    NumSPEs: float
    MaxSNR: float
    MinSNR: float
    AvgSNR: float
    StdSNR: float
    SNRPeakDM: float
    DMRange: float
    AvgDM: float
    StdDM: float
    TimeRange: float
    PeakWidthDM: float
    NumPeaks: float
    MaxSlope: float
    MinSlope: float
    FitResidual: float
    SNRSkew: float
    StartTime: float
    StopTime: float
    ClusterRank: float
    PulseRank: float
    DMSpacing: float
    SNRRatio: float

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "PulseFeatures":
        if len(vec) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features, got {len(vec)}")
        return cls(**{name: float(v) for name, v in zip(FEATURE_NAMES, vec)})


assert tuple(f.name for f in fields(PulseFeatures)) == FEATURE_NAMES


def _skewness(x: np.ndarray) -> float:
    """Fisher-Pearson skewness; 0 for degenerate samples."""
    if x.size < 3:
        return 0.0
    std = float(x.std())
    if std <= 1e-12:
        return 0.0
    return float(np.mean(((x - x.mean()) / std) ** 3))


def _peak_width_dm(dms: np.ndarray, snrs: np.ndarray) -> float:
    """DM extent over which the profile stays above half of its maximum."""
    half = snrs.max() / 2.0
    above = dms[snrs >= half]
    if above.size == 0:
        return 0.0
    return float(above.max() - above.min())


def extract_pulse_features(
    dms: np.ndarray,
    snrs: np.ndarray,
    times: np.ndarray,
    peak_hint: int,
    binsize: int,
    cluster_rank: int,
    pulse_rank: int,
    n_peaks_in_cluster: int,
    dm_spacing: float,
    cluster_start_time: float,
    cluster_stop_time: float,
) -> PulseFeatures:
    """Compute the 22 features of one single pulse.

    Parameters
    ----------
    dms, snrs, times:
        The pulse's member SPEs, sorted ascending by DM.
    peak_hint:
        Index (into these arrays) of the first SPE of the peak bin — used for
        the SNRRatio numerator ("the SNR of the first point in the peak").
    binsize:
        Bin size the search used (needed to recompute trend diagnostics).
    cluster_rank / pulse_rank / n_peaks_in_cluster / dm_spacing:
        Contextual values supplied by the caller (RAPID).
    cluster_start_time / cluster_stop_time:
        StartTime/StopTime are defined on the *cluster* the pulse came from.
    """
    dms = np.asarray(dms, dtype=float)
    snrs = np.asarray(snrs, dtype=float)
    times = np.asarray(times, dtype=float)
    if not (dms.size == snrs.size == times.size):
        raise ValueError("dms, snrs, times must have equal length")
    if dms.size == 0:
        raise ValueError("cannot extract features from an empty pulse")
    peak_hint = int(np.clip(peak_hint, 0, dms.size - 1))

    max_snr = float(snrs.max())
    peak_idx = int(np.argmax(snrs))
    if dms.size >= 2:
        slopes, _edges = bin_slopes(dms, snrs, binsize)
        max_slope = float(slopes.max()) if slopes.size else 0.0
        min_slope = float(slopes.min()) if slopes.size else 0.0
        residual = bin_fit_residual(dms, snrs, binsize)
    else:
        max_slope = min_slope = residual = 0.0

    snr_ratio = float(snrs[peak_hint]) / max_snr if max_snr > 0 else 0.0

    return PulseFeatures(
        NumSPEs=float(dms.size),
        MaxSNR=max_snr,
        MinSNR=float(snrs.min()),
        AvgSNR=float(snrs.mean()),
        StdSNR=float(snrs.std()),
        SNRPeakDM=float(dms[peak_idx]),
        DMRange=float(dms.max() - dms.min()),
        AvgDM=float(dms.mean()),
        StdDM=float(dms.std()),
        TimeRange=float(times.max() - times.min()),
        PeakWidthDM=_peak_width_dm(dms, snrs),
        NumPeaks=float(n_peaks_in_cluster),
        MaxSlope=max_slope,
        MinSlope=min_slope,
        FitResidual=residual,
        SNRSkew=_skewness(snrs),
        StartTime=float(cluster_start_time),
        StopTime=float(cluster_stop_time),
        ClusterRank=float(cluster_rank),
        PulseRank=float(pulse_rank),
        DMSpacing=float(dm_spacing),
        SNRRatio=snr_ratio,
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

    Columnar counterpart of :func:`extract_pulse_features` for all pulses of
    an observation at once: pulse ``i`` is ``[starts[i], stops[i])`` of the
    flat DM-sorted ``dms``/``snrs``/``times`` columns, ``hints[i]`` the
    absolute index of its peak bin's first SPE and ``binsizes[i]`` the bin
    size its cluster was searched with.  The six contextual columns
    (NumPeaks, StartTime, StopTime, ClusterRank, PulseRank, DMSpacing) are
    the caller's and come back zero.

    Bit-identical to the per-record path by construction.  Segments are
    grouped by (length, binsize) and gathered into C-contiguous
    ``(group, L)`` matrices: an ``axis=1`` reduction then applies the same
    pairwise summation to each row as the 1-D call on that segment would (summation
    grouping depends only on the row length, so fusing *equal-length*
    segments is safe where fusing unequal ones is not), and min/max/argmax
    are order-independent.  The trend diagnostics are one row-wise
    ``bin_slopes`` + residual per group.
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
        # (possible only for all-negative SNR segments, which the scalar
        # path maps to 0.0).
        above = snr >= (max_snr / 2.0)[:, None]
        lo = np.where(above, dm, np.inf).min(axis=1)
        hi = np.where(above, dm, -np.inf).max(axis=1)
        out[sel, 10] = np.where(above.any(axis=1), hi - lo, 0.0)

        # SNRSkew, replaying _skewness row-wise (guards included).
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
