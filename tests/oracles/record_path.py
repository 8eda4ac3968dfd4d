"""The per-cluster record path of stage 3, kept as a test oracle.

Until PR 22 this code lived in ``src/`` beside the columnar path that
replaced it (``core.rapid.search_observation_columns`` /
``run_rapid_observation_batch`` / ``DRapidDriver.run``).  Nothing live calls
it any more; it is the unit of work *as the paper states it* — one cluster,
one Algorithm 1 search, one 22-feature extraction per pulse, one dataclass
per record — and the identity laws hold the live path to it bit for bit:

- ``search_observation_columns`` ≡ :func:`run_rapid_on_cluster` box by box
  (``tests/test_core_rapid_columns.py``);
- ``core.rapid._box_members`` (a sort by time) ≡
  :func:`_reference_box_members` (the dense mask), pair for pair
  (``tests/test_core_rapid_columns.py``);
- ``DRapidDriver.run`` ≡ :func:`run_reference`, ML files byte for byte
  (``tests/test_dataplane_batches.py``);
- batch columns ≡ record lists under every batch operation
  (``tests/test_properties_dataplane.py``);
- ``find_single_pulses`` ≡ :func:`find_single_pulses_recursive`
  (``tests/test_core_search.py``, ``tests/test_properties_core_ml.py``).

The bodies are the ones ``src/`` shipped, moved, with one rule changed in
step with the live parser: a data-file row whose DM, Sigma or Time is not a
*finite* float is dropped (:func:`_reference_search_observation`).

The per-bin trend slopes are the oracle's own too: :func:`bin_slopes` and
:func:`bin_edges` are the one-profile bodies ``core.regression`` shipped
before the live search went to padded size-class blocks, copied here so
that the identity laws compare the live ragged path with independent code,
not with itself.  Of stage 3, only the Algorithm 1 state machine
(``_step``, ``_finalize``, ``classify_trend``) and Eq. 1's
``dynamic_bin_size`` are still imported from ``src/``, and the padded
blocks changed none of them.  :func:`spans_to_spe_ranges` lives here too:
the live search maps spans to SPE ranges as columns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from repro.astro.spe import SPE, SPE_FILE_HEADER, ObservationKey
from repro.astro.survey import Observation
from repro.core.bins import dynamic_bin_size
from repro.core.drapid import DRapidDriver, DRapidResult
from repro.core.features import FEATURE_NAMES
from repro.core.search import (
    PulseSpan,
    SearchParams,
    _finalize,
    _MachineState,
    _step,
    classify_trend,
)
from repro.dataplane import ClusterBatch, PulseBatch, SPEBatch
from repro.io.spe_files import CLUSTER_FILE_HEADER, ClusterRecord, parse_cluster_line
from repro.sparklet.partitioner import HashPartitioner

# -- regression ---------------------------------------------------------------


def bin_edges(n: int, binsize: int) -> list[tuple[int, int]]:
    """Half-open index ranges of consecutive bins over ``n`` points.

    Bins advance by ``binsize`` but include one extra boundary point
    (``[start, start + binsize + 1)``), so adjacent bins share an endpoint.
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


def bin_slopes(
    x: np.ndarray, y: np.ndarray, binsize: int
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Trend slope of every bin of one profile, plus the bin index ranges.

    Per-bin means and cross-products come from prefix sums over the
    globally centred profile (slopes are shift-invariant, and centring
    keeps the prefix sums free of catastrophic cancellation).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    edges = bin_edges(x.shape[-1], binsize)
    if not edges:
        return np.empty(x.shape[:-1] + (0,), dtype=float), edges
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



def ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of the least squares line through (x, y); 0 for degenerate bins.

    A bin whose x-values are all identical (several SPEs at one trial DM) has
    no defined trend; treating it as flat keeps the state machine stable.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if x.size < 2:
        return 0.0
    xm = x - x.mean()
    denom = float(xm @ xm)
    # Same degeneracy threshold as the vectorized bin_slopes: bins whose
    # x-spread is numerically negligible are flat, not infinitely steep.
    if denom <= 1e-12:
        return 0.0
    return float(xm @ (y - y.mean())) / denom


def bin_fit_residual(x: np.ndarray, y: np.ndarray, binsize: int) -> float:
    """Mean absolute OLS residual across bins (the FitResidual feature).

    Measures how well piecewise-linear trends describe the profile: real
    single pulses fit cleanly, noise clusters do not.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slopes, edges = bin_slopes(x, y, binsize)
    if not edges:
        return 0.0
    total = 0.0
    count = 0
    for (start, stop), slope in zip(edges, slopes):
        xs = x[start:stop]
        ys = y[start:stop]
        intercept = ys.mean() - slope * xs.mean()
        total += float(np.abs(ys - (intercept + slope * xs)).sum())
        count += stop - start
    return total / max(count, 1)


# -- Algorithm 1, as the paper writes it ----------------------------------------


def _trend_slopes(dms, snrs, params: SearchParams, binsize: int | None):
    """Check a DM-sorted profile and fit its bin trends."""
    dms = np.asarray(dms, dtype=float)
    snrs = np.asarray(snrs, dtype=float)
    if dms.shape != snrs.shape:
        raise ValueError("dms and snrs must have equal length")
    if np.any(np.diff(dms, axis=-1) < 0):
        raise ValueError("dms must be sorted ascending (sort the cluster by DM first)")
    if binsize is None:
        binsize = dynamic_bin_size(dms.shape[-1], params.weight)
    return bin_slopes(dms, snrs, binsize)


def find_single_pulses_recursive(
    dms: np.ndarray,
    snrs: np.ndarray,
    params: SearchParams = SearchParams(),
    binsize: int | None = None,
) -> tuple[list[PulseSpan], list[tuple[int, int]]]:
    """The paper's recursive formulation: ``search(next, bn)``.

    Each call handles one bin and recurses with its slope, exactly as
    Algorithm 1 is written.  Slopes come from the same vectorized
    computation the iterative version uses, so the two are bit-identical (a
    per-call scalar refit would agree only up to floating-point noise);
    the equivalence is enforced by a property test.
    """
    slopes, edges = _trend_slopes(dms, snrs, params, binsize)
    state = _MachineState()

    needed = len(edges) + 16
    old_limit = sys.getrecursionlimit()
    if needed > old_limit:
        sys.setrecursionlimit(needed + 64)
    try:
        def search(bin_idx: int, prev_slope: float) -> None:
            if bin_idx >= len(edges):  # "if next > total number of SPEs: return"
                return
            bn = float(slopes[bin_idx])
            _step(
                state,
                classify_trend(prev_slope, params.slope_threshold),
                classify_trend(bn, params.slope_threshold),
                bin_idx,
            )
            search(bin_idx + 1, bn)  # "search(next, bn)"

        search(0, 0.0)
    finally:
        sys.setrecursionlimit(old_limit)
    return _finalize(state, last_bin=len(edges) - 1), edges


def spans_to_spe_ranges(
    spans: list[PulseSpan], edges: list[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """Convert bin-unit pulse spans to SPE index ranges.

    Returns ``(spe_start, spe_stop, peak_hint_start)`` triples where
    ``[spe_start, spe_stop)`` covers the pulse and ``peak_hint_start`` is the
    first SPE index of the peak bin.
    """
    out = []
    for span in spans:
        spe_start = edges[span.start_bin][0]
        spe_stop = edges[span.end_bin][1]
        peak_bin = span.peak_bin if span.peak_bin >= 0 else span.start_bin
        out.append((spe_start, spe_stop, edges[peak_bin][0]))
    return out


# -- the 22 features of one pulse -------------------------------------------------


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


# -- RAPID, one cluster at a time ------------------------------------------------


@dataclass
class SinglePulse:
    """One identified single pulse with its feature vector and provenance."""

    observation_key: str
    cluster_id: int
    spe_start: int
    spe_stop: int
    features: PulseFeatures
    #: Ground-truth: name of the generating pulsar (None = noise/RFI cluster).
    source_name: str | None = None
    is_rrat: bool = False

    @property
    def n_spes(self) -> int:
        return self.spe_stop - self.spe_start

    def to_ml_row(self) -> str:
        """Serialize for the D-RAPID "ML file" output (stage 3 → stage 4).

        Floats use shortest-exact formatting (``repr``), so
        ``from_ml_row(to_ml_row(p)) == p`` holds bit for bit.
        """
        vec = ",".join(repr(float(v)) for v in self.features.to_vector().tolist())
        label = self.source_name or ""
        return f"{self.observation_key},{self.cluster_id},{self.spe_start},{self.spe_stop},{label},{int(self.is_rrat)},{vec}"

    @classmethod
    def from_ml_row(cls, row: str) -> "SinglePulse":
        parts = row.rstrip("\n").split(",")
        if len(parts) < 6 + 22:
            raise ValueError(f"malformed ML row: {row!r}")
        vec = np.array([float(v) for v in parts[6:]], dtype=float)
        return cls(
            observation_key=parts[0],
            cluster_id=int(parts[1]),
            spe_start=int(parts[2]),
            spe_stop=int(parts[3]),
            features=PulseFeatures.from_vector(vec),
            source_name=parts[4] or None,
            is_rrat=bool(int(parts[5])),
        )


@dataclass
class RapidResult:
    """All pulses identified in one observation plus bookkeeping."""

    pulses: list[SinglePulse] = field(default_factory=list)
    n_clusters_searched: int = 0
    n_clusters_skipped: int = 0

    @property
    def n_pulses(self) -> int:
        return len(self.pulses)


def run_rapid_on_cluster(
    times: np.ndarray,
    dms: np.ndarray,
    snrs: np.ndarray,
    cluster_rank: int,
    dm_spacing_of: "callable",
    observation_key: str = "",
    cluster_id: int = 0,
    params: SearchParams = SearchParams(),
    source_name: str | None = None,
    is_rrat: bool = False,
) -> list[SinglePulse]:
    """Search one cluster for single pulses and extract their features.

    ``dm_spacing_of`` maps a DM value to the local trial-ladder step (the
    DMSpacing feature); pass ``grid.spacing_at``.
    """
    times = np.asarray(times, dtype=float)
    dms = np.asarray(dms, dtype=float)
    snrs = np.asarray(snrs, dtype=float)
    n = dms.size
    if n < 2:
        return []
    order = np.lexsort((times, dms))
    dms_s, snrs_s, times_s = dms[order], snrs[order], times[order]

    binsize = dynamic_bin_size(n, params.weight)
    spans, edges = find_single_pulses_recursive(dms_s, snrs_s, params, binsize=binsize)
    if not spans:
        return []
    ranges = spans_to_spe_ranges(spans, edges)

    # PulseRank: 1 = brightest peak of the cluster (ordered by SNRMax).
    peak_snrs = [float(snrs_s[a:b].max()) for a, b, _p in ranges]
    rank_order = np.argsort([-s for s in peak_snrs], kind="stable")
    pulse_ranks = np.empty(len(ranges), dtype=int)
    pulse_ranks[rank_order] = np.arange(1, len(ranges) + 1)

    t_lo, t_hi = float(times_s.min()), float(times_s.max())
    out: list[SinglePulse] = []
    for i, (a, b, peak_hint) in enumerate(ranges):
        seg_dms, seg_snrs, seg_times = dms_s[a:b], snrs_s[a:b], times_s[a:b]
        peak_dm = float(seg_dms[int(np.argmax(seg_snrs))])
        feats = extract_pulse_features(
            seg_dms,
            seg_snrs,
            seg_times,
            peak_hint=peak_hint - a,
            binsize=binsize,
            cluster_rank=cluster_rank,
            pulse_rank=int(pulse_ranks[i]),
            n_peaks_in_cluster=len(ranges),
            dm_spacing=float(dm_spacing_of(peak_dm)),
            cluster_start_time=t_lo,
            cluster_stop_time=t_hi,
        )
        out.append(
            SinglePulse(
                observation_key=observation_key,
                cluster_id=cluster_id,
                spe_start=a,
                spe_stop=b,
                features=feats,
                source_name=source_name,
                is_rrat=is_rrat,
            )
        )
    return out


def run_rapid_observation(
    obs: Observation,
    params: SearchParams = SearchParams(),
    min_cluster_size: int = 2,
) -> RapidResult:
    """Serial RAPID over every cluster of one observation, cluster by cluster.

    Each cluster's search region is its DM × time box over the full SPE
    list — exactly what D-RAPID does after its join, so serial and
    distributed results are bit-identical.
    """
    result = RapidResult()
    batch = obs.spe_batch
    times, dms, snrs = batch.time_s, batch.dm, batch.snr
    key = obs.key.to_key()
    for cluster in obs.clusters:
        if cluster.size < min_cluster_size:
            continue
        idx = np.nonzero(
            (dms >= cluster.dm_lo)
            & (dms <= cluster.dm_hi)
            & (times >= cluster.t_lo)
            & (times <= cluster.t_hi)
        )[0]
        name, is_rrat = obs.cluster_truth.get(cluster.cluster_id, (None, False))
        result.pulses.extend(
            run_rapid_on_cluster(
                times[idx], dms[idx], snrs[idx],
                cluster_rank=cluster.rank,
                dm_spacing_of=obs.grid.spacing_at,
                observation_key=key,
                cluster_id=cluster.cluster_id,
                params=params,
                source_name=name,
                is_rrat=is_rrat,
            )
        )
        result.n_clusters_searched += 1
    result.n_clusters_skipped = len(obs.clusters) - result.n_clusters_searched
    return result


# -- record views of the batch types ---------------------------------------------


def spe_records(batch: SPEBatch) -> list[SPE]:
    return [
        SPE(dm=d, snr=s, time_s=t, sample=a, downfact=f)
        for d, s, t, a, f in zip(
            batch.dm.tolist(), batch.snr.tolist(), batch.time_s.tolist(),
            batch.sample.tolist(), batch.downfact.tolist(),
        )
    ]


def cluster_records(batch: ClusterBatch) -> list[ClusterRecord]:
    return [
        ClusterRecord(
            key=batch.key[i],
            cluster_id=int(batch.cluster_id[i]),
            rank=int(batch.rank[i]),
            n_spes=int(batch.n_spes[i]),
            dm_lo=float(batch.dm_lo[i]),
            dm_hi=float(batch.dm_hi[i]),
            t_lo=float(batch.t_lo[i]),
            t_hi=float(batch.t_hi[i]),
            max_snr=float(batch.max_snr[i]),
            source=batch.source[i],
            is_rrat=bool(batch.is_rrat[i]),
        )
        for i in range(len(batch))
    ]


def pulse_records(batch: PulseBatch) -> list[SinglePulse]:
    return [
        SinglePulse(
            observation_key=key, cluster_id=cid, spe_start=a, spe_stop=b,
            features=PulseFeatures(*vec), source_name=src, is_rrat=rr,
        )
        for key, cid, a, b, src, rr, vec in zip(
            batch.observation_key.tolist(), batch.cluster_id.tolist(),
            batch.spe_start.tolist(), batch.spe_stop.tolist(),
            batch.source_name.tolist(), batch.is_rrat.tolist(),
            batch.features.tolist(),
        )
    ]


def pulse_batch_from_records(pulses: Iterable[SinglePulse]) -> PulseBatch:
    pulses = list(pulses)
    if not pulses:
        return PulseBatch.empty()
    features = np.array([p.features.to_vector() for p in pulses], dtype=np.float64)
    return PulseBatch(
        np.array([p.observation_key for p in pulses], dtype=object),
        np.array([p.cluster_id for p in pulses], dtype=np.int64),
        np.array([p.spe_start for p in pulses], dtype=np.int64),
        np.array([p.spe_stop for p in pulses], dtype=np.int64),
        np.array([p.source_name for p in pulses], dtype=object),
        np.array([p.is_rrat for p in pulses], dtype=np.bool_),
        features,
    )


# -- record-at-a-time file builders ----------------------------------------------


def spes_to_csv(key: ObservationKey, spes: Iterable[SPE], include_header: bool = False) -> str:
    """Render SPE rows in the D-RAPID data-file format (key prefix + data)."""
    lines = [SPE_FILE_HEADER] if include_header else []
    prefix = key.to_key()
    lines.extend(f"{prefix},{spe.to_csv_row()}" for spe in spes)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_spe_line(line: str) -> tuple[str, SPE]:
    """Parse ``key,dm,snr,time,sample,downfact`` → (key, SPE)."""
    key, _, rest = line.partition(",")
    if not rest:
        raise ValueError(f"malformed SPE line: {line!r}")
    return key, SPE.from_csv_row(rest)


def _reference_build_data_file(observations: Iterable[Observation]) -> str:
    """The record-at-a-time data-file builder."""
    chunks = [SPE_FILE_HEADER + "\n"]
    for obs in observations:
        chunks.append(spes_to_csv(obs.key, obs.spes))
    return "".join(chunks)


def _reference_build_cluster_file(observations: Iterable[Observation]) -> str:
    """The record-at-a-time cluster-file builder."""
    lines = [CLUSTER_FILE_HEADER]
    for obs in observations:
        key = obs.key.to_key()
        for cluster in obs.clusters:
            source, is_rrat = obs.cluster_truth.get(cluster.cluster_id, (None, False))
            lines.append(
                ClusterRecord(
                    key=key,
                    cluster_id=cluster.cluster_id,
                    rank=cluster.rank,
                    n_spes=cluster.size,
                    dm_lo=cluster.dm_lo,
                    dm_hi=cluster.dm_hi,
                    t_lo=cluster.t_lo,
                    t_hi=cluster.t_hi,
                    max_snr=cluster.max_snr,
                    source=source,
                    is_rrat=is_rrat,
                ).to_line()
            )
    return "\n".join(lines) + "\n"


# -- box membership ------------------------------------------------------------

#: Cells of the (clusters x SPEs) mask evaluated at once.
_MEMBERSHIP_CELLS = 1 << 21


def _reference_box_members(
    times: np.ndarray,
    dms: np.ndarray,
    spe_obs: np.ndarray,
    clusters: ClusterBatch,
    box_obs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(cluster row, SPE index)`` of every SPE inside each cluster's box,
    from the dense (clusters x SPEs) mask the live search shipped before it
    sorted by time: every box against every SPE of its observation, read
    out row-major (cluster order, then SPE order), in blocks of a fixed
    cell budget."""
    rows = [np.empty(0, dtype=np.intp)]
    cols = [np.empty(0, dtype=np.intp)]
    per_block = max(1, _MEMBERSHIP_CELLS // max(dms.size, 1))
    for lo in range(0, len(clusters), per_block):
        block = slice(lo, lo + per_block)
        inside = dms >= clusters.dm_lo[block, None]
        inside &= dms <= clusters.dm_hi[block, None]
        inside &= times >= clusters.t_lo[block, None]
        inside &= times <= clusters.t_hi[block, None]
        inside &= spe_obs == box_obs[block, None]
        row, col = np.nonzero(inside)
        rows.append(row + lo)
        cols.append(col)
    return np.concatenate(rows), np.concatenate(cols)


# -- D-RAPID, one tuple per SPE row ------------------------------------------------


def _reference_search_observation(
    key: str,
    clusters: list[ClusterRecord],
    spe_rows: list[str] | None,
    grids: dict,
    params: SearchParams,
) -> list[SinglePulse]:
    """The record-oriented Search body of the Fig. 3 dataflow."""
    if spe_rows is None:
        return []  # null from the left outer join: SPE data missing
    dataset = key.split("|", 1)[0]
    grid = grids.get(dataset)
    spacing_of = grid.spacing_at if grid is not None else (lambda _dm: 1.0)

    # Parse defensively: survey csv files accumulate truncated/garbled rows
    # (interrupted transfers, header fragments); a bad row must cost one
    # record, not the observation.  A row is kept iff its first three
    # fields are finite floats — SPEBatch.from_data_rows' rule.
    dms_l: list[float] = []
    snrs_l: list[float] = []
    times_l: list[float] = []
    for row in spe_rows:
        parts = row.split(",")
        if len(parts) < 3:
            continue
        try:
            dm, snr, t = float(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            continue
        if not (math.isfinite(dm) and math.isfinite(snr) and math.isfinite(t)):
            continue
        dms_l.append(dm)
        snrs_l.append(snr)
        times_l.append(t)
    dms = np.array(dms_l)
    snrs = np.array(snrs_l)
    times = np.array(times_l)

    out: list[SinglePulse] = []
    for rec in clusters:
        mask = (
            (dms >= rec.dm_lo)
            & (dms <= rec.dm_hi)
            & (times >= rec.t_lo)
            & (times <= rec.t_hi)
        )
        if int(mask.sum()) < 2:
            continue
        out.extend(
            run_rapid_on_cluster(
                times[mask],
                dms[mask],
                snrs[mask],
                cluster_rank=rec.rank,
                dm_spacing_of=spacing_of,
                observation_key=key,
                cluster_id=rec.cluster_id,
                params=params,
                source_name=rec.source,
                is_rrat=rec.is_rrat,
            )
        )
    return out


def run_reference(
    driver: DRapidDriver,
    data_path: str,
    cluster_path: str,
    ml_output_path: str = "/ml/out",
) -> DRapidResult:
    """``driver``'s job as the per-record dataflow.

    Ships one ``(key, row)`` tuple per SPE through the shuffle and one
    ``ClusterRecord`` per cluster row.  The equivalence suite asserts
    :meth:`DRapidDriver.run` writes byte-identical ML files; keep the two
    dataflows in lockstep when touching either.
    """
    ctx, dfs = driver.ctx, driver.dfs
    ctx.reset_metrics()
    partitioner = HashPartitioner(driver.num_partitions)
    grids = driver.grids
    params = driver.params

    data_kvp = (
        ctx.text_file(dfs, data_path)
        .filter(lambda line: line and not line.startswith("#"))
        .map(lambda line: line.partition(",")[::2])  # (key, rest); rest "" if no comma
    )

    dropped = ctx.accumulator(0)

    def parse_or_none(line: str) -> ClusterRecord | None:
        try:
            return parse_cluster_line(line)
        except ValueError:
            dropped.add(1)
            return None

    cluster_kvp = (
        ctx.text_file(dfs, cluster_path)
        .filter(lambda line: line and not line.startswith("#"))
        .map(parse_or_none)
        .filter(lambda rec: rec is not None)
        .map(lambda rec: (rec.key, rec))
    )

    def append(acc: list, v) -> list:
        acc.append(v)
        return acc

    def extend(a: list, b: list) -> list:
        a.extend(b)
        return a

    data_agg = data_kvp.partition_by(partitioner).aggregate_by_key(
        [], append, extend, partitioner=partitioner
    )
    cluster_agg = cluster_kvp.partition_by(partitioner).aggregate_by_key(
        [], append, extend, partitioner=partitioner
    )

    joined = cluster_agg.left_outer_join(data_agg, partitioner=partitioner)

    searched = joined.map(
        lambda kv: (
            kv[0],
            _reference_search_observation(kv[0], kv[1][0], kv[1][1], grids, params),
        )
    )

    ml_rows = searched.flat_map(lambda kv: [p.to_ml_row() for p in kv[1]]).cache()
    ml_rows.save_as_text_file(dfs, ml_output_path)

    metrics = ctx.all_job_metrics()
    n_dropped = int(dropped.value)

    pulses = [SinglePulse.from_ml_row(row) for row in ml_rows.collect()]
    null_joins = joined.filter(lambda kv: kv[1][1] is None).count()
    n_clusters = cluster_kvp.count()

    return DRapidResult(
        pulse_batch=pulse_batch_from_records(pulses),
        ml_output_path=ml_output_path,
        metrics=metrics,
        n_clusters=n_clusters,
        n_null_joins=null_joins,
        n_dropped_cluster_rows=n_dropped,
    )
