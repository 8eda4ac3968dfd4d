"""The front end's seed implementations, kept as test oracles.

Until PR 23 these lived in ``src/`` beside the kernels that replaced them
(``astro/kernels.py``, ``astro/filterbank.py``, ``astro/clustering.py``).
Nothing live calls them; the identity laws hold the live kernels to them:

- :func:`_reference_dedisperse_block` (the exact block) ≡
  :func:`_reference_dedisperse` row by row within 1e-9, and every row the
  one engine, ``plan_dedispersion``, sums from the channels (a group of
  one: every row of a coarse ladder, or of channels not in ascending
  frequency order) ≡ its row, bit for bit; shared subband groups stay
  within the tolerance law of it, and the recovery law holds the engine's
  best S/N per injected pulse to the exact block's
  (``tests/test_astro_kernels.py``, ``tests/test_frontend_stream.py``,
  ``tests/test_frontend_recovery.py``,
  ``benchmarks/bench_frontend_kernels.py``);
- ``boxcar_snr`` ≡ :func:`_reference_boxcar_snr` to summation order,
  ``find_peaks`` ≡ :func:`_reference_find_peaks`
  (``tests/test_astro_kernels.py``);
- ``single_pulse_block_search`` ≡ :func:`_reference_block_search` bit for
  bit, dtype included (``tests/test_astro_kernels.py``);
- ``DedispersionPlan.fill`` ≡ :func:`_reference_fill`, the row-at-a-time
  fill over :func:`_reference_shift_sum`, and the channel-major
  ``_shift_add`` ≡ that loop row by row, bit for bit
  (``tests/test_frontend_fill.py``);
- ``single_pulse_search`` against :func:`_reference_single_pulse_search`
  (``tests/test_astro_kernels.py``, ``benchmarks/bench_frontend_kernels.py``)
  and against :func:`_reference_exact_search`, the same search over the
  exact block (``tests/test_frontend_recovery.py``,
  ``tests/test_execution_config.py``);
- ``SinglePulseDBSCAN._dbscan`` ≡ :func:`_reference_dbscan`, label for label
  (the hypothesis suites of ``tests/test_astro_kernels.py``);
- ``SinglePulseDBSCAN._merge_artifact_clusters`` and ``_summarize`` ≡
  :func:`_reference_merge_artifact_clusters` (scatter-reduce bounds) and
  :func:`_reference_summarize` (five reductions per cluster, ranks by a
  stable sort of the records), labels and every cluster field bit for bit
  (``tests/test_astro_clustering.py``).

The bodies are the ones ``src/`` shipped, moved; the DBSCAN methods became
functions taking the clusterer, the exact block is the body of ``src/``'s
last exact dedispersion method (``dedisperse_batch``), and the per-row fill
is ``DedispersionPlan.fill`` before it went channel-major.
"""

from __future__ import annotations

import numpy as np

from repro.astro.clustering import NOISE, Cluster, SinglePulseDBSCAN
from repro.astro.dispersion import K_DM
from repro.astro.filterbank import Filterbank
from repro.astro.kernels import (
    DedispersionPlan,
    find_peaks,
    shift_table,
    single_pulse_block_search,
)
from repro.astro.spe import SPE, spes_from_search

# -- kernels ------------------------------------------------------------------


def _reference_dedisperse(
    data: np.ndarray,
    freqs_mhz: np.ndarray,
    f_ref_mhz: float,
    sample_time_s: float,
    dm: float,
) -> np.ndarray:
    """The seed's per-channel shift-and-sum loop, one trial DM at a time."""
    if dm < 0:
        raise ValueError("DM must be non-negative")
    n_chan, n_samples = data.shape
    out = np.zeros(n_samples, dtype=np.float64)
    for ch, f in enumerate(np.asarray(freqs_mhz, dtype=np.float64)):
        delay = K_DM * dm * (f**-2 - f_ref_mhz**-2)
        shift = int(round(delay / sample_time_s))
        if shift == 0:
            out += data[ch]
        elif shift < n_samples:
            out[: n_samples - shift] += data[ch, shift:]
    return out / np.sqrt(n_chan)


def _reference_dedisperse_block(
    data: np.ndarray,
    freqs_mhz: np.ndarray,
    f_ref_mhz: float,
    sample_time_s: float,
    trial_dms: np.ndarray,
    out_dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """The exact (n_dms × n_samples) block: each row the channels summed at
    their :func:`shift_table` shifts, in channel order, in ``out_dtype``,
    then scaled by 1/√n_chan."""
    dtype = np.dtype(out_dtype)
    channels = list(np.ascontiguousarray(data, dtype=dtype))
    n_chan, n_samples = np.shape(data)
    scale = dtype.type(1.0) / np.sqrt(dtype.type(n_chan))
    shifts = shift_table(freqs_mhz, f_ref_mhz, trial_dms, sample_time_s)
    out = np.empty((len(shifts), n_samples), dtype=dtype)
    for row, row_shifts in zip(out, shifts.tolist()):
        row[:] = 0.0
        for channel, s in zip(channels, row_shifts):
            if s == 0:
                row += channel
            elif s < n_samples:
                row[: n_samples - s] += channel[s:]
        row *= scale
    return out


def _reference_shift_sum(row: np.ndarray, series: list[np.ndarray], shifts: list[int]) -> None:
    """``row`` ← Σᵢ ``series[i]`` advanced by ``shifts[i]`` samples, summed
    in ``series`` order from zero; a shift of ``row.size`` or more adds
    nothing.  One row at a time, the series streaming through it."""
    n = row.size
    row[:] = 0.0
    for src, s in zip(series, shifts):
        if s == 0:
            row += src
        elif s < n:
            row[: n - s] += src[s:]


def _reference_fill(plan: DedispersionPlan, lo: int, out: np.ndarray) -> np.ndarray:
    """``plan.fill(lo, out)`` a row at a time: each group of one summed from
    the channels, each shared group's partials (one buffer, one group at a
    time) and then each member row summed from them, every row scaled as
    soon as it is summed."""
    scale = plan.dtype.type(1.0) / np.sqrt(plan.dtype.type(len(plan.channels)))
    hi = lo + len(out)
    exact = plan.shifts[lo:hi].tolist()
    members: dict[int, list[int]] = {}
    for i, g in enumerate(plan.group_of[lo:hi].tolist()):
        if g < 0:
            _reference_shift_sum(out[i], plan.channels, exact[i])
            out[i] *= scale
        else:
            members.setdefault(g, []).append(i)
    if not members:
        return out
    sub = plan.stage2[lo:hi].tolist()
    partial = list(np.empty((len(plan.edges), plan.n_samples), dtype=plan.dtype))
    for g, rows in members.items():
        for part, (a, b), table in zip(partial, plan.edges, plan.stage1):
            _reference_shift_sum(part, plan.channels[a:b], table[g].tolist())
        for i in rows:
            _reference_shift_sum(out[i], partial, sub[i])
            out[i] *= scale
    return out


def _reference_exact_search(
    fb: Filterbank,
    trial_dms: np.ndarray,
    snr_threshold: float = 5.0,
    boxcar_widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    dtype: np.dtype | type = np.float32,
) -> list[SPE]:
    """``single_pulse_search`` with the exact block in place of the
    engine's: :func:`_reference_dedisperse_block`, searched whole."""
    trial_dms = np.asarray(trial_dms, dtype=float)
    block = _reference_dedisperse_block(
        fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s, trial_dms, dtype,
    )
    found = single_pulse_block_search(block, snr_threshold, boxcar_widths)
    return spes_from_search(trial_dms, fb.sample_time_s, *found)


def _reference_boxcar_snr(
    series: np.ndarray, widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
) -> tuple[np.ndarray, np.ndarray]:
    """Naive O(n·w) boxcar SNR: ``np.convolve`` per width, left-aligned.

    Same math as :func:`boxcar_snr` (noise once per series, identical
    normalization expressions) so equivalence is tolerance-bounded only by
    the convolve-vs-cumsum summation order.
    """
    series = np.asarray(series)
    n = series.size
    if n == 0:
        return np.empty(0, dtype=series.dtype), np.empty(0, dtype=np.int64)
    med = float(np.median(series))
    mad = float(np.median(np.abs(series - med))) * 1.4826
    sigma = max(mad, 1e-9)
    best_z = np.full(n, -np.inf, dtype=series.dtype)
    best_width = np.ones(n, dtype=np.int64)
    for w in widths:
        if w > n:
            break
        m = n - w + 1
        win = np.convolve(series, np.ones(w, dtype=series.dtype), mode="full")[
            w - 1 : n
        ]
        zw = win * (1.0 / np.sqrt(w))
        zw -= np.sqrt(w) * med
        better = zw > best_z[:m]
        best_z[:m][better] = zw[better]
        best_width[:m][better] = w
    return best_z / series.dtype.type(sigma), best_width


def _reference_find_peaks(snr: np.ndarray, threshold: float) -> np.ndarray:
    """The seed's Python local-maxima scan over above-threshold samples."""
    out = []
    n = snr.size
    for i in np.nonzero(snr >= threshold)[0]:
        left = snr[i - 1] if i > 0 else -np.inf
        right = snr[i + 1] if i + 1 < n else -np.inf
        if snr[i] >= left and snr[i] > right:
            out.append(i)
    return np.asarray(out, dtype=np.int64)


# -- the per-row block search -------------------------------------------------


def _reference_median_inplace(a: np.ndarray) -> float:
    """``np.median`` semantics without its NaN-check overhead; ~8× faster.

    Partitions ``a`` in place (callers pass scratch buffers).
    """
    m = a.size
    h = m // 2
    a.partition(h)
    if m % 2:
        return a[h]
    # Even length: the (h-1)-th order statistic is the max of the left
    # partition half.  A tuple kth costs ~10× a single kth + max pass.
    return (a[:h].max() + a[h]) * a.dtype.type(0.5)


def _reference_noise_stats(series: np.ndarray, scratch: np.ndarray) -> tuple[float, float]:
    """(median, robust sigma) of one dedispersed series, estimated once.

    sigma = 1.4826 × MAD, floored at 1e-9 (the seed's convention).
    """
    scratch[:] = series
    med = _reference_median_inplace(scratch)
    np.subtract(series, med, out=scratch)
    np.abs(scratch, out=scratch)
    mad = _reference_median_inplace(scratch)
    sigma = mad * series.dtype.type(1.4826)
    return float(med), max(float(sigma), 1e-9)


def _reference_best_z(
    series: np.ndarray,
    widths: tuple[int, ...],
    med: float,
    csum: np.ndarray,
    buf: np.ndarray,
    best: np.ndarray,
) -> None:
    """Fill ``best`` with max-over-widths of the normalized window statistic.

    For a left-aligned width-``w`` window starting at ``i``,
    ``z_w[i] = (Σ series[i:i+w]) / √w − √w · med``; dividing by sigma gives
    the SNR.  Because sigma is shared across widths, the max over widths can
    be taken on ``z`` directly — one ``np.maximum`` per width instead of two
    fancy-index writes.
    """
    n = series.size
    csum[0] = 0.0
    np.cumsum(series, out=csum[1:])
    best[:] = -np.inf
    for w in widths:
        if w > n:
            break
        m = n - w + 1
        zw = np.subtract(csum[w:], csum[: m], out=buf[:m])
        zw *= 1.0 / np.sqrt(w)
        zw -= np.sqrt(w) * med
        np.maximum(best[:m], zw, out=best[:m])


def _reference_widths_at(
    samples: np.ndarray,
    best: np.ndarray,
    widths: tuple[int, ...],
    med: float,
    csum: np.ndarray,
    n: int,
) -> np.ndarray:
    """Recover the winning boxcar width at the given samples only.

    Recomputes ``z_w`` with the exact same expressions as
    :func:`_reference_best_z` (bitwise-identical floats), then takes the
    first width attaining the tracked maximum — matching the seed's
    first-width-wins tie-breaking.
    """
    k = samples.size
    applicable = [w for w in widths if w <= n]
    out = np.ones(k, dtype=np.int64)  # the seed's default width
    if not applicable:
        return out
    z = np.full((len(applicable), k), -np.inf)
    for row, w in enumerate(applicable):
        ok = samples <= n - w
        s_ok = samples[ok]
        zw = csum[s_ok + w] - csum[s_ok]
        zw *= 1.0 / np.sqrt(w)
        zw -= np.sqrt(w) * med
        z[row, ok] = zw
    # -inf best (no width fits at this sample) must keep the default width,
    # not "match" the -inf placeholder rows.
    hit = (z == best[samples][None, :]) & np.isfinite(best[samples])[None, :]
    any_hit = hit.any(axis=0)
    first = np.argmax(hit, axis=0)
    out[any_hit] = np.asarray(applicable, dtype=np.int64)[first[any_hit]]
    return out


def _reference_block_search(
    block: np.ndarray,
    threshold: float,
    widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-row loop ``single_pulse_block_search`` ran until it was
    row-blocked: noise, prefix sums and every width's statistic one row at
    a time, then :func:`repro.astro.kernels.find_peaks` on the row.

    Its ``_reference_best_z`` stops at the first width longer than the row,
    so it is the law only for widths in ascending order (or with the
    over-long ones removed); the live kernel skips them instead.
    """
    block = np.asarray(block)
    n_rows, n = block.shape
    csum = np.empty(n + 1, dtype=block.dtype)
    buf = np.empty(n, dtype=block.dtype)
    best = np.empty(n, dtype=block.dtype)
    snr = np.empty(n, dtype=block.dtype)
    scratch = np.empty(n, dtype=block.dtype)
    out_rows: list[np.ndarray] = []
    out_samples: list[np.ndarray] = []
    out_snrs: list[np.ndarray] = []
    out_widths: list[np.ndarray] = []
    for d in range(n_rows):
        series = block[d]
        med, sigma = _reference_noise_stats(series, scratch)
        _reference_best_z(series, widths, med, csum, buf, best)
        np.divide(best, block.dtype.type(sigma), out=snr)
        peaks = find_peaks(snr, threshold)
        if peaks.size == 0:
            continue
        out_rows.append(np.full(peaks.size, d, dtype=np.int64))
        out_samples.append(peaks)
        out_snrs.append(snr[peaks].copy())
        out_widths.append(_reference_widths_at(peaks, best, widths, med, csum, n))
    if not out_rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=block.dtype), empty
    return (
        np.concatenate(out_rows),
        np.concatenate(out_samples),
        np.concatenate(out_snrs),
        np.concatenate(out_widths),
    )


# -- single pulse search ------------------------------------------------------


def _reference_single_pulse_search(
    fb: Filterbank,
    trial_dms: np.ndarray,
    snr_threshold: float = 5.0,
    boxcar_widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> list[SPE]:
    """The seed's naive search, retained as the benchmark baseline.

    Per trial DM: a per-channel Python dedispersion loop, an O(n·w)
    ``np.convolve`` per boxcar width with median/MAD re-estimated on every
    smoothed series, and a Python local-maxima scan.  Note the two seed
    conventions the vectorized path deliberately changes: windows are
    centred (``mode="same"``, half a sample off for even widths) and noise
    is estimated per width rather than once per series.
    """
    if snr_threshold <= 0:
        raise ValueError("snr_threshold must be positive")
    trial_dms = np.asarray(trial_dms, dtype=float)
    spes: list[SPE] = []
    for dm in trial_dms:
        series = _reference_dedisperse(
            fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s, float(dm)
        )
        best_snr = np.full(series.size, -np.inf)
        best_width = np.ones(series.size, dtype=int)
        for width in boxcar_widths:
            if width > series.size:
                break
            kernel = np.ones(width) / np.sqrt(width)
            smoothed = np.convolve(series, kernel, mode="same")
            med = np.median(smoothed)
            mad = np.median(np.abs(smoothed - med)) * 1.4826
            snr = (smoothed - med) / max(mad, 1e-9)
            better = snr > best_snr
            best_snr[better] = snr[better]
            best_width[better] = width
        above = best_snr >= snr_threshold
        if not above.any():
            continue
        # Local maxima only: one SPE per peak, not per above-threshold sample.
        idx = np.nonzero(above)[0]
        for i in idx:
            left = best_snr[i - 1] if i > 0 else -np.inf
            right = best_snr[i + 1] if i + 1 < best_snr.size else -np.inf
            if best_snr[i] >= left and best_snr[i] > right:
                spes.append(
                    SPE(
                        dm=float(dm),
                        snr=round(float(best_snr[i]), 3),
                        time_s=round(i * fb.sample_time_s, 6),
                        sample=int(i),
                        downfact=int(best_width[i]),
                    )
                )
    return spes


# -- DBSCAN -------------------------------------------------------------------


def _expand(db: SinglePulseDBSCAN, neighbours, n: int) -> np.ndarray:
    """The classic DBSCAN sweep; only :func:`_reference_dbscan` runs it."""
    labels = np.full(n, NOISE, dtype=int)
    visited = np.zeros(n, dtype=bool)
    cluster_id = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        seed = neighbours(i)
        if len(seed) < db.min_samples:
            continue  # not a core point (may later join as border point)
        labels[i] = cluster_id
        queue = [j for j in seed if j != i]
        while queue:
            j = queue.pop()
            if labels[j] == NOISE:
                labels[j] = cluster_id  # border point
            if visited[j]:
                continue
            visited[j] = True
            labels[j] = cluster_id
            nb = neighbours(j)
            if len(nb) >= db.min_samples:
                queue.extend(k for k in nb if not visited[k] or labels[k] == NOISE)
        cluster_id += 1
    return labels


def _reference_dbscan(db: SinglePulseDBSCAN, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The seed's dict-of-cells sweep, the oracle
    :meth:`SinglePulseDBSCAN._dbscan` is tested against."""
    n = x.size
    cells: dict[tuple[int, int], list[int]] = {}
    cx = np.floor(x).astype(int)
    cy = np.floor(y).astype(int)
    for i in range(n):
        cells.setdefault((cx[i], cy[i]), []).append(i)

    def neighbours(i: int) -> list[int]:
        out: list[int] = []
        xi, yi = x[i], y[i]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = cells.get((cx[i] + dx, cy[i] + dy))
                if not bucket:
                    continue
                for j in bucket:
                    if (x[j] - xi) ** 2 + (y[j] - yi) ** 2 <= 1.0:
                        out.append(j)
        return out

    return _expand(db, neighbours, n)


def _reference_merge_artifact_clusters(
    db: SinglePulseDBSCAN, labels: np.ndarray, times: np.ndarray, dms: np.ndarray
) -> np.ndarray:
    """Union clusters that nearly touch in time and overlap in DM."""
    valid = labels != NOISE
    ids = np.unique(labels[valid])
    k = ids.size
    if k < 2:
        return labels
    pos = np.searchsorted(ids, labels[valid])
    t_lo = np.full(k, np.inf)
    t_hi = np.full(k, -np.inf)
    dm_lo = np.full(k, np.inf)
    dm_hi = np.full(k, -np.inf)
    np.minimum.at(t_lo, pos, times[valid])
    np.maximum.at(t_hi, pos, times[valid])
    np.minimum.at(dm_lo, pos, dms[valid])
    np.maximum.at(dm_hi, pos, dms[valid])

    parent = np.arange(k)

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    ordered = np.argsort(t_lo, kind="stable")
    for a_pos, a in enumerate(ordered):
        for b in ordered[a_pos + 1 :]:
            if t_lo[b] - t_hi[a] > db.merge_gap_s:
                break
            dm_overlap = min(dm_hi[a], dm_hi[b]) - max(dm_lo[a], dm_lo[b])
            if dm_overlap >= 0:
                ra, rb = find(int(a)), find(int(b))
                if ra != rb:
                    parent[rb] = ra
    roots = np.array([find(c) for c in range(k)])
    _dense_roots, dense_of_root = np.unique(roots, return_inverse=True)
    out = labels.copy()
    out[valid] = dense_of_root[pos]
    return out


def _reference_summarize(
    labels: np.ndarray, times: np.ndarray, dms: np.ndarray, snrs: np.ndarray
) -> list[Cluster]:
    """One ``Cluster`` per label, in label order, ranked by brightness."""
    valid_idx = np.nonzero(labels != NOISE)[0]
    if valid_idx.size == 0:
        return []
    vlab = labels[valid_idx]
    order = np.argsort(vlab, kind="stable")
    sorted_idx = valid_idx[order]
    sorted_lab = vlab[order]
    starts = np.concatenate([[0], np.nonzero(np.diff(sorted_lab))[0] + 1])
    ends = np.concatenate([starts[1:], [sorted_lab.size]])
    clusters: list[Cluster] = []
    for s, e in zip(starts, ends):
        members = sorted_idx[s:e]
        clusters.append(
            Cluster(
                cluster_id=int(sorted_lab[s]),
                indices=members.tolist(),
                dm_lo=float(dms[members].min()),
                dm_hi=float(dms[members].max()),
                t_lo=float(times[members].min()),
                t_hi=float(times[members].max()),
                max_snr=float(snrs[members].max()),
            )
        )
    for rank, cluster in enumerate(sorted(clusters, key=lambda cl: -cl.max_snr), start=1):
        cluster.rank = rank
    return clusters
