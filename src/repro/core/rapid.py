"""RAPID: single-machine single pulse identification.

``run_rapid_on_cluster`` is the unit of work D-RAPID distributes: sort one
cluster's SPEs by DM, run the Algorithm 1 search, extract the 22 features of
every identified single pulse.  ``run_rapid_observation`` applies it to
every cluster of an observation (the serial baseline all parallel variants
are validated against).

``run_rapid_dpg`` reproduces the *old* DPG-granularity algorithm of Devine
et al. (2016) — fixed bin size 25, one profile per observation built from
the maximum SNR at each DM — used by the Fig. 1 experiment to show the
granularity gap (1 DPG vs. ~hundreds of single pulses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.astro.survey import Observation
from repro.core.bins import DPG_FIXED_BIN_SIZE, dynamic_bin_size
from repro.core.features import (
    PulseFeatures,
    extract_pulse_features,
    extract_pulse_features_matrix,
)
from repro.core.search import SearchParams, find_single_pulses, spans_to_spe_ranges
from repro.dataplane import PulseBatch, fmt_float


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
        vec = ",".join(fmt_float(v) for v in self.features.to_vector().tolist())
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


def _search_sorted_cluster(times, dms, snrs, params):
    """Shared Algorithm 1 prologue: sort by DM, search, rank the peaks.

    Returns ``None`` when the cluster is too small or has no pulses;
    otherwise the sorted columns plus the per-pulse ranges and ranks.  Both
    the record path and the batch path run exactly this, so their inputs to
    feature extraction are identical arrays.
    """
    times = np.asarray(times, dtype=float)
    dms = np.asarray(dms, dtype=float)
    snrs = np.asarray(snrs, dtype=float)
    n = dms.size
    if n < 2:
        return None
    order = np.lexsort((times, dms))
    dms_s, snrs_s, times_s = dms[order], snrs[order], times[order]

    binsize = dynamic_bin_size(n, params.weight)
    spans, edges = find_single_pulses(dms_s, snrs_s, params, binsize=binsize)
    if not spans:
        return None
    ranges = spans_to_spe_ranges(spans, edges)

    # PulseRank: 1 = brightest peak of the cluster (ordered by SNRMax).
    peak_snrs = [float(snrs_s[a:b].max()) for a, b, _p in ranges]
    rank_order = np.argsort([-s for s in peak_snrs], kind="stable")
    pulse_ranks = np.empty(len(ranges), dtype=int)
    pulse_ranks[rank_order] = np.arange(1, len(ranges) + 1)

    t_lo, t_hi = float(times_s.min()), float(times_s.max())
    return dms_s, snrs_s, times_s, binsize, ranges, pulse_ranks, t_lo, t_hi


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

    This is the record-oriented path, retained as the reference the
    columnar :func:`run_rapid_on_cluster_batch` is equivalence-gated
    against.
    """
    searched = _search_sorted_cluster(times, dms, snrs, params)
    if searched is None:
        return []
    dms_s, snrs_s, times_s, binsize, ranges, pulse_ranks, t_lo, t_hi = searched
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


def run_rapid_on_cluster_batch(
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
) -> PulseBatch:
    """Columnar :func:`run_rapid_on_cluster`: one PulseBatch per cluster.

    Runs the same Algorithm 1 prologue and fills the (n, 22) feature matrix
    directly (:func:`extract_pulse_features_matrix`) — no per-pulse
    dataclasses.  Bit-identical to the record path by construction.
    """
    searched = _search_sorted_cluster(times, dms, snrs, params)
    if searched is None:
        return PulseBatch.empty()
    dms_s, snrs_s, times_s, binsize, ranges, pulse_ranks, t_lo, t_hi = searched
    features = extract_pulse_features_matrix(
        dms_s, snrs_s, times_s, ranges, pulse_ranks,
        binsize=binsize,
        cluster_rank=cluster_rank,
        dm_spacing_of=dm_spacing_of,
        cluster_start_time=t_lo,
        cluster_stop_time=t_hi,
    )
    n = len(ranges)
    return PulseBatch(
        observation_key=np.full(n, observation_key, dtype=object),
        cluster_id=np.full(n, cluster_id, dtype=np.int64),
        spe_start=np.array([a for a, _b, _p in ranges], dtype=np.int64),
        spe_stop=np.array([b for _a, b, _p in ranges], dtype=np.int64),
        source_name=np.full(n, source_name, dtype=object),
        is_rrat=np.full(n, is_rrat, dtype=np.bool_),
        features=features,
    )


@dataclass
class RapidBatchResult:
    """Columnar counterpart of :class:`RapidResult`."""

    pulse_batch: PulseBatch
    n_clusters_searched: int = 0
    n_clusters_skipped: int = 0

    @property
    def n_pulses(self) -> int:
        return len(self.pulse_batch)

    @property
    def pulses(self) -> list[SinglePulse]:
        """Record-view adapter (materialized on demand)."""
        return self.pulse_batch.to_records()


def _searched_clusters(
    obs: Observation, params: SearchParams, min_cluster_size: int
) -> Iterator[tuple[tuple[np.ndarray, np.ndarray, np.ndarray], dict]]:
    """The one serial cluster-selection loop behind both observation runners.

    Yields, for every cluster of at least ``min_cluster_size`` SPEs, the
    ``(times, dms, snrs)`` column slices to search and the keyword arguments
    of the per-cluster function.  Each cluster's search region is its
    DM × time box over the full SPE list — the paper's semantics ("search
    only in the areas of the data file that coincide with the clusters"),
    and exactly what D-RAPID does after its join, so serial and distributed
    results are bit-identical.
    """
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
        yield (times[idx], dms[idx], snrs[idx]), dict(
            cluster_rank=cluster.rank,
            dm_spacing_of=obs.grid.spacing_at,
            observation_key=key,
            cluster_id=cluster.cluster_id,
            params=params,
            source_name=name,
            is_rrat=is_rrat,
        )


def run_rapid_observation_batch(
    obs: Observation,
    params: SearchParams = SearchParams(),
    min_cluster_size: int = 2,
) -> RapidBatchResult:
    """Serial RAPID over one observation, staying columnar throughout.

    Reads the observation's :class:`SPEBatch` columns and concatenates the
    per-cluster :class:`PulseBatch` outputs; semantics match
    :func:`run_rapid_observation` exactly (same masks, same skip rules).
    """
    batches = [
        run_rapid_on_cluster_batch(*columns, **kwargs)
        for columns, kwargs in _searched_clusters(obs, params, min_cluster_size)
    ]
    return RapidBatchResult(
        PulseBatch.concat([pb for pb in batches if len(pb)]),
        len(batches), len(obs.clusters) - len(batches),
    )


def run_rapid_observation(
    obs: Observation,
    params: SearchParams = SearchParams(),
    min_cluster_size: int = 2,
) -> RapidResult:
    """Serial RAPID over every cluster of one observation (record path)."""
    result = RapidResult()
    for columns, kwargs in _searched_clusters(obs, params, min_cluster_size):
        result.pulses.extend(run_rapid_on_cluster(*columns, **kwargs))
        result.n_clusters_searched += 1
    result.n_clusters_skipped = len(obs.clusters) - result.n_clusters_searched
    return result


def run_rapid_dpg(obs: Observation, params: SearchParams = SearchParams()) -> int:
    """DPG-mode RAPID (Devine et al. 2016): one aggregated profile, fixed bins.

    Considers only the maximum SNR at each trial DM across the *whole*
    observation and runs the peak search once with the fixed bin size of 25.
    Returns the number of dispersed pulse groups found.
    """
    if not len(obs.spe_batch):
        return 0
    dms = obs.spe_batch.dm
    snrs = obs.spe_batch.snr
    uniq, inverse = np.unique(dms, return_inverse=True)
    profile = np.zeros(uniq.size)
    np.maximum.at(profile, inverse, snrs)
    spans, _edges = find_single_pulses(uniq, profile, params, binsize=DPG_FIXED_BIN_SIZE)
    return len(spans)
