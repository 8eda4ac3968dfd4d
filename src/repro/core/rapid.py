"""RAPID: single-machine single pulse identification.

The unit of work as the paper states it: sort one cluster's SPEs by DM, run
the Algorithm 1 search, extract the 22 features of every identified single
pulse.  ``search_observation_columns`` does that for all clusters of an
observation at once — it is D-RAPID's Search phase, the multithreaded
baseline's task and the body of ``run_rapid_observation_batch`` (the serial
baseline all parallel variants are validated against).  Survey clusters are
tiny (median 4 SPEs), so a call per cluster is ~40 NumPy dispatches on a
handful of floats.  Unequal-length rows *can* share a call: padded with
``-0.0``, the exact additive identity, a row keeps its pairwise sums bit
for bit as long as it is summed over its size class — 7 for n < 8,
8k + 7 for 8k <= n < 128, its own length from 128 on
(:mod:`repro.core.regression`).  So an observation's clusters, and then
its pulses, are gathered into a few ``-0.0``-padded blocks (usually one),
and each block is one Algorithm 1 call and one feature call.  Output bits,
row order and ``PulseRank`` ties equal those of the per-cluster oracle
(``tests/oracles/record_path.py``); the property suite in
``tests/test_core_rapid_columns.py`` holds the two together, class edges
included.

``run_rapid_dpg`` reproduces the *old* DPG-granularity algorithm of Devine
et al. (2016) — fixed bin size 25, one profile per observation built from
the maximum SNR at each DM — used by the Fig. 1 experiment to show the
granularity gap (1 DPG vs. ~hundreds of single pulses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.astro.dispersion import DMGrid
from repro.astro.survey import Observation
from repro.core.bins import DPG_FIXED_BIN_SIZE, dynamic_bin_size
from repro.core.features import extract_segment_features
from repro.core.regression import padded_blocks
from repro.core.search import SearchParams, find_single_pulses, find_single_pulses_rows
from repro.dataplane import ClusterBatch, PulseBatch
from repro.io.spe_files import observation_cluster_batch

#: Cells of the (clusters x SPEs) box-membership block evaluated at once, so
#: the search's transient memory does not grow with the observation.
_MEMBERSHIP_CELLS = 1 << 21


def _box_members(
    times: np.ndarray, dms: np.ndarray, clusters: ClusterBatch
) -> tuple[np.ndarray, np.ndarray]:
    """``(cluster row, SPE index)`` of every SPE inside each cluster's box.

    A cluster's search region is its DM × time box over the full SPE list —
    the paper's semantics ("search only in the areas of the data file that
    coincide with the clusters").  Pairs come out row-major (cluster order,
    then SPE order), which is the order a per-cluster mask would give.
    """
    rows = [np.empty(0, dtype=np.intp)]
    cols = [np.empty(0, dtype=np.intp)]
    per_block = max(1, _MEMBERSHIP_CELLS // max(dms.size, 1))
    for lo in range(0, len(clusters), per_block):
        block = slice(lo, lo + per_block)
        inside = dms >= clusters.dm_lo[block, None]
        inside &= dms <= clusters.dm_hi[block, None]
        inside &= times >= clusters.t_lo[block, None]
        inside &= times <= clusters.t_hi[block, None]
        row, col = np.nonzero(inside)
        rows.append(row + lo)
        cols.append(col)
    return np.concatenate(rows), np.concatenate(cols)


def search_observation_columns(
    times: np.ndarray,
    dms: np.ndarray,
    snrs: np.ndarray,
    clusters: ClusterBatch,
    grid: DMGrid | None,
    observation_key: str = "",
    params: SearchParams = SearchParams(),
) -> PulseBatch:
    """Algorithm 1 + the 22 features for every cluster of one observation.

    ``times``/``dms``/``snrs`` are the observation's SPE columns and
    ``clusters`` the boxes to search; ``grid`` supplies DMSpacing (1.0
    without one).  Equal to the per-cluster oracle applied box by box —
    every bit, rows in cluster order then range order — but the work is
    done in columns: all box memberships at once, one stable
    ``(cluster, dm, time)`` sort, one Algorithm 1 call per padded block of
    clusters and one feature call per padded block of pulses
    (:func:`repro.core.regression.padded_blocks`: all size classes share a
    block while it stays small, and a size of 128 or more is a class of its
    own).
    """
    times = np.asarray(times, dtype=float)
    dms = np.asarray(dms, dtype=float)
    snrs = np.asarray(snrs, dtype=float)
    if not (times.size == dms.size == snrs.size):
        raise ValueError(
            "times, dms and snrs must have equal length, got "
            f"{times.size}, {dms.size} and {snrs.size}"
        )
    cluster_of, spe = _box_members(times, dms, clusters)
    t, d, s = times[spe], dms[spe], snrs[spe]
    order = np.lexsort((t, d, cluster_of))
    t, d, s = t[order], d[order], s[order]
    sizes = np.bincount(cluster_of, minlength=len(clusters))
    offsets = np.cumsum(sizes) - sizes

    # One Algorithm 1 call per padded block of searched clusters: a
    # (clusters, width) gather with -0.0 past every row's own members (the
    # spare cell appended to d and s).
    searched = np.nonzero(sizes >= 2)[0]
    sizes_seen, size_slot = np.unique(sizes[searched], return_inverse=True)
    binsize_of = np.array(
        [dynamic_bin_size(n, params.weight) for n in sizes_seen.tolist()], dtype=np.int64
    )[size_slot]
    d_pad, s_pad = np.append(d, -0.0), np.append(s, -0.0)
    parts = []
    for in_block, width in padded_blocks(sizes[searched]):
        rows = searched[in_block]
        n = sizes[rows]
        gather = np.where(
            np.arange(width) < n[:, None], offsets[rows][:, None] + np.arange(width), d.size
        )
        spans, (bin_start, bin_stop) = find_single_pulses_rows(
            d_pad[gather], s_pad[gather], params, binsize_of[in_block], n
        )
        # One row per pulse: (block row, start bin, peak bin, end bin).
        table = [
            (i, span.start_bin, span.peak_bin if span.peak_bin >= 0 else span.start_bin,
             span.end_bin)
            for i, row_spans in enumerate(spans) for span in row_spans
        ]
        if table:
            i, first, peak, last = np.array(table, dtype=np.int64).T
            # (cluster row, binsize, spe_start, spe_stop, peak_hint)
            parts.append((rows[i], binsize_of[in_block[i]], bin_start[i, first],
                          bin_stop[i, last], bin_start[i, peak]))
    if not parts:
        return PulseBatch.empty()
    cluster, binsizes, start, stop, hint = (np.concatenate(col) for col in zip(*parts))
    # Stable: cluster order, then range order within a cluster.
    by_cluster = np.argsort(cluster, kind="stable")
    cluster, binsizes, start, stop, hint = (
        col[by_cluster] for col in (cluster, binsizes, start, stop, hint)
    )

    base = offsets[cluster]
    features = extract_segment_features(
        d, s, t, base + start, base + stop, base + hint, binsizes
    )
    n_peaks = np.unique(cluster, return_counts=True)[1]
    features[:, 11] = np.repeat(n_peaks, n_peaks)
    # StartTime/StopTime: time extent of the pulse's (non-empty) cluster.
    occupied = np.nonzero(sizes)[0]
    slot = np.searchsorted(occupied, cluster)
    features[:, 16] = np.minimum.reduceat(t, offsets[occupied])[slot]
    features[:, 17] = np.maximum.reduceat(t, offsets[occupied])[slot]
    features[:, 18] = clusters.rank[cluster]
    # PulseRank: 1 = brightest peak of the cluster (by MaxSNR, ties stable).
    by_snr = np.lexsort((-features[:, 1], cluster))
    first_of_cluster = np.repeat(np.cumsum(n_peaks) - n_peaks, n_peaks)
    features[by_snr, 19] = np.arange(1, cluster.size + 1) - first_of_cluster
    features[:, 20] = 1.0 if grid is None else grid.spacing_of(features[:, 5])
    return PulseBatch(
        observation_key=np.full(cluster.size, observation_key, dtype=object),
        cluster_id=clusters.cluster_id[cluster],
        spe_start=start,
        spe_stop=stop,
        source_name=clusters.source[cluster],
        is_rrat=clusters.is_rrat[cluster],
        features=features,
    )


@dataclass
class RapidBatchResult:
    """All pulses identified in one observation plus bookkeeping."""

    pulse_batch: PulseBatch
    n_clusters_searched: int = 0
    n_clusters_skipped: int = 0

    @property
    def n_pulses(self) -> int:
        return len(self.pulse_batch)


def searched_clusters(obs: Observation, min_cluster_size: int = 2) -> ClusterBatch:
    """The boxes a search of ``obs`` visits.

    Its clusters of at least ``min_cluster_size`` SPEs, ground truth attached.
    """
    clusters = observation_cluster_batch(obs)
    return clusters.take(np.nonzero(clusters.n_spes >= min_cluster_size)[0])


def run_rapid_observation_batch(
    obs: Observation,
    params: SearchParams = SearchParams(),
    min_cluster_size: int = 2,
) -> RapidBatchResult:
    """Serial RAPID over one observation, staying columnar throughout.

    Hands the observation's :class:`SPEBatch` columns and the boxes of its
    clusters of at least ``min_cluster_size`` SPEs to
    :func:`search_observation_columns`.  Each cluster's search region is
    its DM × time box over the full SPE list — exactly what D-RAPID does
    after its join.  The two are bit-identical when the grid's trial DMs
    survive D-RAPID's ``%.3f`` data file unchanged; a ladder value with
    float noise (``21.400000000000002``) is snapped there, and Algorithm 1
    can then split a cluster differently (one pulse apart on
    ``examples/survey_search.py``'s input; a strict xfail in
    ``test_integration_end_to_end``).
    """
    searched = searched_clusters(obs, min_cluster_size)
    batch = obs.spe_batch
    return RapidBatchResult(
        search_observation_columns(
            batch.time_s, batch.dm, batch.snr, searched, obs.grid,
            obs.key.to_key(), params,
        ),
        len(searched), len(obs.clusters) - len(searched),
    )


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
