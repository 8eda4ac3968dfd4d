"""Vectorized front-end kernels: batch dedispersion and O(n) boxcar search.

The paper's Fig. 2 pipeline spends its upstream phases — dedispersion →
single pulse search — before RAPID ever runs.  The seed implementation ran
those phases in near-pure-Python loops: a per-channel shift loop inside
``dedisperse`` repeated for every trial DM, an O(n·w) ``np.convolve`` per
boxcar width, and a Python local-maxima scan.  This module replaces them
with NumPy kernels that process the whole trial-DM grid at once:

- :func:`shift_table` — the per-(trial DM, channel) sample-shift table,
  computed once for the whole grid;
- :func:`dedisperse_batch` — the full (n_dms × n_samples) dedispersed
  block via vectorized slice-adds;
- :func:`dedisperse_subband` — an optional two-stage subband path that
  reuses partial sums across neighbouring trial DMs (the classic ~O(√n_chan)
  trick; tolerance-bounded, wins on fine DM ladders);
- :func:`dedisperse_grid` — the method dispatcher driven by
  :class:`repro.execution.KernelConfig`;
- :func:`boxcar_snr` — O(n) sliding-boxcar SNR via cumulative sums, with
  median/MAD noise estimated once per series;
- :func:`find_peaks` — vectorized threshold + local-maxima pass;
- :func:`single_pulse_block_search` — the fused per-row fast path used by
  :func:`repro.astro.filterbank.single_pulse_search`.

Sample convention
-----------------
Boxcar windows are **left-aligned**: the width-``w`` window at sample ``i``
covers samples ``[i, i+w)``, and a detection is reported at the window's
*first* sample.  The seed used ``np.convolve(..., mode="same")``, which
centres even-width boxcars half a sample off; left alignment makes the
convention exact and documentable on the emitted SPE.

Performance notes (they shape this file)
----------------------------------------
Measured on the single-core reference host:

- ``np.median`` costs ~8× a raw ``np.partition`` (NaN-checking overhead);
  :func:`_median_inplace` uses partition directly.
- Temporaries are expensive; every hot ufunc call writes into a
  preallocated buffer (``out=``).
- The dedispersed block (n_dms × n_samples) exceeds L2, so the boxcar
  stage iterates row-by-row: one dedispersed series (~0.5 MB) stays
  cache-resident through its cumsum, window, and noise passes.
- Tracking the best boxcar width per sample needs two fancy-index writes
  per width; instead only the best statistic is tracked (``np.maximum``)
  and the winning width is recomputed at the (few) detected peaks.

Implementation layer
--------------------
Every kernel is NumPy and nothing else.  :func:`resolve_impl` and
:data:`HAS_NUMBA` survive only for callers that still name an
implementation: they validate the name, and every accepted one means NumPy.

Tolerance law (subband)
-----------------------
The subband path replaces per-(DM, channel) exact shifts with intra-subband
shifts evaluated at a group representative DM plus an exact inter-subband
shift.  The guarantee: every channel's *effective* shift is within
``tol_samples + 1`` samples of the exact :func:`shift_table` shift —
``tol_samples`` of ladder-grouping error plus 1 sample of re-rounding.
Tie-break rules are exact and deterministic: grouping is greedy over the
ascending sorted DM ladder, a DM joins the open group while
``dm − rep ≤ ddm_max`` (strict ``>`` opens a new group), and the group's
*first* member is its representative.  When a ladder admits no grouping, or
the channels are not in ascending frequency order, the path falls back to
the exact :func:`dedisperse_batch`.

The seed's naive implementations live in ``tests/oracles/frontend.py``
so property tests can assert bit-for-bit (or tolerance-bounded)
equivalence, and so the benchmark can time naive vs. vectorized honestly.
"""

from __future__ import annotations

import numpy as np

from repro.astro.dispersion import K_DM
from repro.execution import KernelConfig, check_subband_settings

#: No JIT layer exists; kept because benchmark records report it.
HAS_NUMBA = False

#: The implementation names :func:`resolve_impl` accepts; all mean NumPy.
KERNEL_IMPLS = ("numpy", "auto")

__all__ = [
    "delay_table",
    "shift_table",
    "dedisperse_batch",
    "dedisperse_subband",
    "dedisperse_grid",
    "resolve_impl",
    "boxcar_snr",
    "find_peaks",
    "single_pulse_block_search",
    "HAS_NUMBA",
]


def resolve_impl(impl: str | None = None) -> str:
    """Validate an implementation name; ``None``, ``auto`` and ``numpy``
    all resolve to ``numpy``, the only layer there is."""
    if impl is not None and impl not in KERNEL_IMPLS:
        raise ValueError(f"impl must be one of {KERNEL_IMPLS} or None, got {impl!r}")
    return "numpy"


# -- shift tables ------------------------------------------------------------

def delay_table(
    freqs_mhz: np.ndarray, f_ref_mhz: float, trial_dms: np.ndarray
) -> np.ndarray:
    """Cold-plasma delay in seconds, shape (n_dms, n_channels).

    Delays are referenced to ``f_ref_mhz`` (the top of the band), matching
    :func:`repro.astro.filterbank.synthesize_filterbank`'s convention.
    """
    freqs_mhz = np.asarray(freqs_mhz, dtype=np.float64)
    trial_dms = np.atleast_1d(np.asarray(trial_dms, dtype=np.float64))
    if np.any(trial_dms < 0):
        raise ValueError("trial DMs must be non-negative")
    g = freqs_mhz**-2.0 - float(f_ref_mhz) ** -2.0
    return K_DM * trial_dms[:, None] * g[None, :]


def shift_table(
    freqs_mhz: np.ndarray,
    f_ref_mhz: float,
    trial_dms: np.ndarray,
    sample_time_s: float,
) -> np.ndarray:
    """Integer sample shifts, shape (n_dms, n_channels), computed once.

    Uses round-half-even (:func:`np.rint`), matching the seed's Python
    ``round``.  All shifts must be non-negative, i.e. ``f_ref_mhz`` must sit
    at or above every channel frequency.
    """
    if sample_time_s <= 0:
        raise ValueError("sample_time_s must be positive")
    shifts = np.rint(delay_table(freqs_mhz, f_ref_mhz, trial_dms) / sample_time_s)
    shifts = shifts.astype(np.int64)
    if shifts.size and shifts.min() < 0:
        raise ValueError("negative shift: f_ref_mhz must be the top of the band")
    return shifts


# -- batch dedispersion ------------------------------------------------------

def dedisperse_batch(
    data: np.ndarray,
    freqs_mhz: np.ndarray,
    f_ref_mhz: float,
    sample_time_s: float,
    trial_dms: np.ndarray,
    out_dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Dedisperse at every trial DM at once → (n_dms, n_samples) block.

    Row-major vectorized slice-adds: for each trial DM the output row stays
    cache-resident while the channels stream through it, exactly mirroring
    the seed's per-channel loop (so float64 output matches that oracle
    bit-for-bit).  ``out_dtype=np.float32``
    halves memory traffic for search pipelines that do not need 1e-9
    reproducibility (PRESTO itself dedisperses in float32).
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("data must be 2-D (channels × samples)")
    trial_dms = np.atleast_1d(np.asarray(trial_dms, dtype=np.float64))
    n_chan, n_samples = data.shape
    shifts = shift_table(freqs_mhz, f_ref_mhz, trial_dms, sample_time_s)
    cols = np.ascontiguousarray(data, dtype=out_dtype)
    out = np.zeros((trial_dms.size, n_samples), dtype=out_dtype)
    shift_rows = shifts.tolist()  # python ints: no per-iteration unboxing
    for d, row_shifts in enumerate(shift_rows):
        row = out[d]
        for ch, s in enumerate(row_shifts):
            if s == 0:
                row += cols[ch]
            elif s < n_samples:
                row[: n_samples - s] += cols[ch, s:]
    out *= out.dtype.type(1.0) / np.sqrt(out.dtype.type(n_chan))
    return out


def _subband_edges(n_chan: int, n_subbands: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal channel ranges [(lo, hi), ...].

    When ``n_chan`` does not divide evenly, the remainder is spread one
    channel at a time across the *leading* subbands (13 channels over 4
    subbands → sizes 4, 3, 3, 3), keeping the worst-case subband span — and
    hence the tolerance-law residual — as small as possible.  The previous
    ``np.linspace(...).astype(int)`` edges truncated toward zero and piled
    the whole remainder into the last subband.
    """
    n_subbands = min(n_subbands, n_chan)
    base, extra = divmod(n_chan, n_subbands)
    edges: list[tuple[int, int]] = []
    lo = 0
    for b in range(n_subbands):
        hi = lo + base + (1 if b < extra else 0)
        edges.append((lo, hi))
        lo = hi
    return edges


def dedisperse_subband(
    data: np.ndarray,
    freqs_mhz: np.ndarray,
    f_ref_mhz: float,
    sample_time_s: float,
    trial_dms: np.ndarray,
    n_subbands: int | None = None,
    tol_samples: float = 1.0,
    out_dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Two-stage subband dedispersion: reuse partial sums across trial DMs.

    Stage 1 dedisperses each subband once per *group* of neighbouring trial
    DMs (intra-subband shifts evaluated at the group's first DM); stage 2
    shifts and sums the ``n_subbands`` partial series per trial DM.  Groups
    are chosen greedily so the worst-case intra-subband residual shift is at
    most ``tol_samples``; with rounding, every channel lands within
    ``tol_samples + 1`` samples of the exact :func:`dedisperse_batch` shift.

    Cost is ``n_groups × n_chan + n_dms × n_subbands`` slice-adds instead of
    ``n_dms × n_chan`` — a large win on fine DM ladders (the low-DM bands of
    :class:`repro.astro.dispersion.DMGrid`, where spacing is 0.01–0.1),
    approaching the classic ~O(√n_chan) saving.  On coarse grids every DM
    forms its own group, and on channels not in ascending frequency order
    (each subband's reference is its top channel) the exact path is used
    instead.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("data must be 2-D (channels × samples)")
    check_subband_settings(n_subbands, tol_samples)
    freqs_mhz = np.asarray(freqs_mhz, dtype=np.float64)
    trial_dms = np.atleast_1d(np.asarray(trial_dms, dtype=np.float64))
    n_chan, n_samples = data.shape
    if not np.all(np.diff(freqs_mhz) > 0):
        return dedisperse_batch(
            data, freqs_mhz, f_ref_mhz, sample_time_s, trial_dms, out_dtype
        )
    if n_subbands is None:
        n_subbands = max(1, int(round(np.sqrt(n_chan))))
    n_subbands = min(n_subbands, n_chan)
    edges = _subband_edges(n_chan, n_subbands)
    # Reference frequency of each subband: its highest channel.
    sub_refs = np.array([freqs_mhz[hi - 1] for _lo, hi in edges])

    # Greedy grouping of the sorted ladder: a group spans at most ddm_max.
    g_span = max(
        float(np.max(np.abs(freqs_mhz[lo:hi] ** -2.0 - sub_refs[b] ** -2.0)))
        for b, (lo, hi) in enumerate(edges)
    )
    if g_span <= 0:  # single channel per subband: stage 1 shifts are exact
        ddm_max = np.inf
    else:
        ddm_max = tol_samples * sample_time_s / (K_DM * g_span)

    order = np.argsort(trial_dms, kind="stable")
    sorted_dms = trial_dms[order]
    group_of = np.empty(trial_dms.size, dtype=np.int64)
    group_reps: list[float] = []
    for pos, dm in enumerate(sorted_dms):
        if not group_reps or dm - group_reps[-1] > ddm_max:
            group_reps.append(float(dm))
        group_of[order[pos]] = len(group_reps) - 1

    if len(group_reps) >= trial_dms.size:
        # No reuse possible on this ladder: fall back to the exact path.
        return dedisperse_batch(
            data, freqs_mhz, f_ref_mhz, sample_time_s, trial_dms, out_dtype
        )

    reps = np.asarray(group_reps)
    cols = np.ascontiguousarray(data, dtype=out_dtype)

    # Stage-1 shift tables (per subband, per group) and stage-2 shifts (per
    # exact trial DM), all computed up front.
    s1_tables = [
        shift_table(freqs_mhz[lo:hi], float(sub_refs[b]), reps, sample_time_s).tolist()
        for b, (lo, hi) in enumerate(edges)
    ]
    s2 = shift_table(sub_refs, f_ref_mhz, trial_dms, sample_time_s).tolist()

    # Process group-major so the (n_subbands × n_samples) partial buffer is
    # reused for every group and stays cache-resident — materializing all
    # groups at once is hundreds of MB at survey scale and thrashes.
    out = np.zeros((trial_dms.size, n_samples), dtype=out_dtype)
    partial = np.empty((len(edges), n_samples), dtype=out_dtype)
    dms_of_group: list[list[int]] = [[] for _ in range(len(reps))]
    for d, g in enumerate(group_of.tolist()):
        dms_of_group[g].append(d)
    for g, members in enumerate(dms_of_group):
        if not members:
            continue
        # Stage 1: intra-subband sums at the group's representative DM.
        partial[:] = 0.0
        for b, (lo, _hi) in enumerate(edges):
            row = partial[b]
            for ch_off, s in enumerate(s1_tables[b][g]):
                if s == 0:
                    row += cols[lo + ch_off]
                elif s < n_samples:
                    row[: n_samples - s] += cols[lo + ch_off, s:]
        # Stage 2: shift each subband partial by the inter-subband delay at
        # the *exact* trial DM and sum.
        for d in members:
            row = out[d]
            for b, s in enumerate(s2[d]):
                if s == 0:
                    row += partial[b]
                elif s < n_samples:
                    row[: n_samples - s] += partial[b, s:]
    out *= out.dtype.type(1.0) / np.sqrt(out.dtype.type(n_chan))
    return out


def dedisperse_grid(
    data: np.ndarray,
    freqs_mhz: np.ndarray,
    f_ref_mhz: float,
    sample_time_s: float,
    trial_dms: np.ndarray,
    kernel=None,
    out_dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Dedisperse the whole trial grid via the configured kernel.

    The single dispatch point for :class:`repro.execution.KernelConfig`
    (None means ``KernelConfig()``): routes to :func:`dedisperse_batch` /
    :func:`dedisperse_subband`.
    """
    k = kernel or KernelConfig()
    if k.method == "subband":
        return dedisperse_subband(
            data, freqs_mhz, f_ref_mhz, sample_time_s, trial_dms,
            n_subbands=k.n_subbands, tol_samples=k.tol_samples, out_dtype=out_dtype,
        )
    return dedisperse_batch(
        data, freqs_mhz, f_ref_mhz, sample_time_s, trial_dms, out_dtype
    )


# -- O(n) boxcar matched filtering -------------------------------------------

def _median_inplace(a: np.ndarray) -> float:
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


def _noise_stats(series: np.ndarray, scratch: np.ndarray) -> tuple[float, float]:
    """(median, robust sigma) of one dedispersed series, estimated once.

    sigma = 1.4826 × MAD, floored at 1e-9 (the seed's convention).
    """
    scratch[:] = series
    med = _median_inplace(scratch)
    np.subtract(series, med, out=scratch)
    np.abs(scratch, out=scratch)
    mad = _median_inplace(scratch)
    sigma = mad * series.dtype.type(1.4826)
    return float(med), max(float(sigma), 1e-9)


def _best_z(
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


def _widths_at(
    samples: np.ndarray,
    best: np.ndarray,
    widths: tuple[int, ...],
    med: float,
    csum: np.ndarray,
    n: int,
) -> np.ndarray:
    """Recover the winning boxcar width at the given samples only.

    Recomputes ``z_w`` with the exact same expressions as :func:`_best_z`
    (bitwise-identical floats), then takes the first width attaining the
    tracked maximum — matching the seed's first-width-wins tie-breaking.
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


def boxcar_snr(
    series: np.ndarray,
    widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> tuple[np.ndarray, np.ndarray]:
    """Best boxcar SNR and width per sample for one dedispersed series.

    Returns ``(snr, best_width)``; ``snr[i]`` is the SNR of the best
    left-aligned window starting at ``i`` (−inf where no configured width
    fits), against median/MAD noise estimated once from the raw series.
    O(n) per width via cumulative sums.
    """
    series = np.ascontiguousarray(series)
    n = series.size
    if n == 0:
        return np.empty(0, dtype=series.dtype), np.empty(0, dtype=np.int64)
    scratch = np.empty_like(series)
    med, sigma = _noise_stats(series, scratch)
    best = np.empty(n, dtype=series.dtype)
    csum = np.empty(n + 1, dtype=series.dtype)
    _best_z(series, widths, med, csum, scratch, best)
    best_width = _widths_at(np.arange(n), best, widths, med, csum, n)
    snr = best / series.dtype.type(sigma)
    return snr, best_width


def find_peaks(snr: np.ndarray, threshold: float) -> np.ndarray:
    """Indices of above-threshold local maxima (vectorized).

    A peak satisfies ``snr[i] >= threshold``, ``snr[i] >= snr[i-1]`` and
    ``snr[i] > snr[i+1]`` (boundary neighbours count as −inf) — the seed's
    exact plateau convention.
    """
    n = snr.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    idx = np.nonzero(snr >= threshold)[0]
    if idx.size == 0:
        return idx
    left = snr[np.maximum(idx - 1, 0)].copy()
    left[idx == 0] = -np.inf
    right = snr[np.minimum(idx + 1, n - 1)].copy()
    right[idx == n - 1] = -np.inf
    at = snr[idx]
    return idx[(at >= left) & (at > right)]


def single_pulse_block_search(
    block: np.ndarray,
    threshold: float,
    widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    boxcar: str = "cumsum",
    impl: str = "numpy",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boxcar-search every row of a dedispersed block.

    Returns ``(row_idx, sample, snr, width)`` arrays ordered by
    (row, sample).  This is the fused cache-friendly path: each row's
    cumsum/window/noise passes run while the row is L2-resident, and the
    winning width is recomputed only at detected peaks.  ``boxcar`` and
    ``impl`` are validated (``"cumsum"`` and :func:`resolve_impl`'s names
    are the only values) and select nothing.
    """
    resolve_impl(impl)
    if boxcar != "cumsum":
        raise ValueError(f"boxcar must be 'cumsum', got {boxcar!r}")
    block = np.asarray(block)
    if block.ndim != 2:
        raise ValueError("block must be 2-D (trial DMs × samples)")
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")
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
        med, sigma = _noise_stats(series, scratch)
        _best_z(series, widths, med, csum, buf, best)
        np.divide(best, block.dtype.type(sigma), out=snr)
        peaks = find_peaks(snr, threshold)
        if peaks.size == 0:
            continue
        out_rows.append(np.full(peaks.size, d, dtype=np.int64))
        out_samples.append(peaks)
        out_snrs.append(snr[peaks].copy())
        out_widths.append(_widths_at(peaks, best, widths, med, csum, n))
    if not out_rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=block.dtype), empty
    return (
        np.concatenate(out_rows),
        np.concatenate(out_samples),
        np.concatenate(out_snrs),
        np.concatenate(out_widths),
    )
