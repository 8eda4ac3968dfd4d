"""Vectorized front-end kernels: batch dedispersion and O(n) boxcar search.

The paper's Fig. 2 pipeline spends its upstream phases — dedispersion →
single pulse search — before RAPID ever runs.  The seed implementation ran
those phases in near-pure-Python loops: a per-channel shift loop inside
``dedisperse`` repeated for every trial DM, an O(n·w) ``np.convolve`` per
boxcar width, and a Python local-maxima scan.  This module replaces them
with NumPy kernels that process the whole trial-DM grid at once:

- :func:`shift_table` — the per-(trial DM, channel) sample-shift table,
  computed once for the whole grid (:func:`delay_table` checks the ladder);
- :func:`plan_dedispersion` — the one dedispersion engine: a
  :class:`DedispersionPlan` holds what one call computes once per ladder
  (the exact shift table, the subband grouping of the whole ladder and its
  stage-1/stage-2 tables) and fills any range of rows, so a search can
  stream the grid a chunk of rows at a time; ``plan.block()`` is the whole
  (n_dms × n_samples) block;
- :func:`boxcar_snr` — O(n) sliding-boxcar SNR via cumulative sums, with
  median/MAD noise estimated once per series;
- :func:`find_peaks` — vectorized threshold + local-maxima pass;
- :func:`single_pulse_block_search` — the row-blocked search used by
  :func:`repro.astro.filterbank.single_pulse_search`: a compare-only screen
  of window sums over a block of rows, exact values only at its candidates.

Sample convention
-----------------
Boxcar windows are **left-aligned**: the width-``w`` window at sample ``i``
covers samples ``[i, i+w)``, and a detection is reported at the window's
*first* sample.  The seed used ``np.convolve(..., mode="same")``, which
centres even-width boxcars half a sample off; left alignment makes the
convention exact and documentable on the emitted SPE.

Performance notes (they shape this file)
----------------------------------------
Measured on one core of a shared 2-vCPU Linux host (NumPy 2.4, 2 MiB of L2
per core):

- ``np.median`` costs ~8× a raw partition (NaN-checking overhead), and
  ``np.partition``'s fresh copy ~2× an in-place ``ndarray.partition`` of a
  preallocated scratch buffer (page faults); the noise pass uses the latter.
- A float64 scalar applied in place to a float32 array (``z *= 1/√w``)
  runs NumPy's buffered cast loop: 3–4× the same op with a float32 scalar.
  The exact statistic needs that rounding path, so the search runs it only
  at candidates.
- A streamed search holds ``_CHUNK_BYTES`` (4 MiB: 64 rows of 16,384
  float32 samples) of dedispersed rows, not the whole block (106 MiB on the
  1,700-DM fine ladder): each chunk is summed into one reused buffer and
  searched before the next is summed.
- Dedispersion is channel-major over blocks of ``_BLOCK_ROWS`` rows
  (:func:`_shift_add`): a row-at-a-time loop streamed all 64 channels
  (4 MiB of filterbank, more than L2) through each row; adding each
  channel's slice to 8 rows before the next channel reads it once per block
  and cut the fine ladder's fill from ≈ 0.28 to ≈ 0.25 s.  That is ≈ 64,000
  slice adds at ≈ 3.5 µs each, the cache-resident add rate, so what is left
  is the number of adds, not the memory traffic.  Stage 1 sums the partials
  of up to ``_PARTIAL_BYTES`` (2 MiB: 4 groups of 8 subbands) of shared
  groups the same way.
- The boxcar search works on blocks of ``_BLOCK_ROWS`` = 8 rows (≈ 0.5 MB
  per scratch buffer at 16,384 float32 samples): one in-place partition per
  median, one ``cumsum(axis=1)`` per block instead of per row.  ``cumsum``
  along axis 1 adds each row in the same sequential float order as a
  per-row ``cumsum``.
- The screen never forms the statistic: per width it makes one float pass
  (the prefix-sum subtraction) and two byte passes (a compare with the
  row's window-sum threshold ``T_w``, an OR into a bool mask), where
  scaling, shifting and a running ``np.maximum`` took four float passes.
  The subtraction is most of what is left (≈ 40 µs of ≈ 57 µs per width on
  an 8 × 16,384 float32 block); all widths' thresholds come from one
  vectorized call per block.
- Candidates come from one ``flatnonzero`` + ``divmod`` (~8× a 2-D
  ``nonzero``); on the fine voltage block ≈ 22 of 16,384 samples per row
  are candidates, ≈ 109 on the dense one.  The winning width is the first
  one attaining the exact maximum, found while the exact values are
  recomputed.

Measured and not kept (so nobody repeats them): two threads over row
chunks (no wall-clock gain, CPU +45%); the fill pipelined on one thread
and the search on another (−5% wall clock, CPU +28%); a cumsum over the
transposed block (slower); a windowed exact selection for the median
(655 µs per block against 170 µs for the partition); partitioning on
integer keys (no gain on real rows); ``_BLOCK_ROWS`` of 16 or 32 and
chunks of 2–16 MiB (no change); de-duplicating identical rows (22 of
1,700 on the fine ladder).

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
*first* member is its representative.  A group with one member shares
nothing, so its row is summed from the channels at its exact shifts — the
exact row (``_reference_dedisperse_block`` in ``tests/oracles/frontend.py``),
bit for bit, for ``n_chan`` slice-adds where the two stages would spend
``n_chan + n_subbands`` and carry the error.  A ladder of singletons (a
coarse one) is therefore the exact block.  Channels not in ascending
frequency order are summed exactly too: every row is a group of one.

Screen law (boxcar)
-------------------
:func:`single_pulse_block_search` emits, for every row, exactly what the
per-row loop it replaced emits (``_reference_block_search`` in
``tests/oracles/frontend.py``), bit for bit and dtype for dtype.  Every
emitted value is computed by :func:`_window_z`; the screen only decides
*where*, by comparing each width-``w`` window sum ``d`` (the same float
subtraction of the same prefix sums on both paths) with a per-row
threshold ``T_w`` in the block dtype.

Let ``fl`` round to the block dtype (unit roundoff ``u = eps/2``; float64's
is at most ``u``), ``c = 1/√w`` and ``S = √w·med`` the float64 values
:func:`_window_z` uses.  The exact statistic is
``z = fl(fl64(fl(fl64(d·c)) − S))`` and the S/N ``fl(z/σ')`` (``σ'`` the
dtype's sigma), both monotone non-decreasing in ``d``.

1. The S/N reaches the threshold ``t`` only if ``z ≥ Θ = t·σ'·(1 − eps)``,
   which covers both rounding of the quotient and a ``t`` compared after
   rounding to the dtype.
2. ``z ≥ Θ > 0`` needs ``y − S ≥ Θ/(1+u)²`` for ``y = fl(fl64(d·c))``, so
   ``y ≥ S + Θ·(1 − 2u)``; and ``y = d·c·(1+δ)(1+δ')`` with
   ``|δ|, |δ'| ≤ u`` gives ``d·c ≥ y − 2.01u·|y|`` whatever the sign of
   ``y``.  The right side grows with ``y``, so
   ``d·c ≥ (Θ + S) − 4.01u·(Θ + |S|)``, and ``1/c = √w·(1 + δ'')`` with
   ``|δ''| ≤ 2.01·u``:

       d ≥ √w·(Θ + S) − 3.1·eps·√w·(Θ + |S|).

3. The screen's float64 bound
   ``√w·(Θ + S) − C·eps·√w·(Θ + |S|)``, ``C = 10``, lies below the right
   side of (2) even after its own float64 roundings (six on the leading
   term, two of them ``Θ``'s: at most ``3.1·eps·√w·(Θ + |S|)`` more, so
   the proof needs ``C ≥ 6.2``).
   Rounded *down* to the dtype (:func:`_window_floors`; a value rounded up
   by the cast steps down one ulp), it is ``T_w``: a dtype value no larger
   than any window sum ``d`` of step 2, so ``d ≥ T_w`` is exact.

So every sample whose S/N reaches ``t`` at some width is a candidate: its
window sum at that width reaches ``T_w``.  The exact statistic is then
recomputed at each candidate and at both of its neighbours, and the seed's
``>=`` / ``>`` plateau rule (:func:`_peak_mask`) and first-width-wins rule
run on those exact values: a sample that is a peak of the per-row loop is a
candidate, and its verdict, S/N and width depend only on exact values.  The
bound assumes rows whose window sums and ``√w·med`` are finite and normal
in the block dtype; NaN samples are NaN on both paths and never peaks, and
a row whose median is NaN has no candidates and no peaks.

The seed's naive implementations live in ``tests/oracles/frontend.py``
so property tests can assert bit-for-bit (or tolerance-bounded)
equivalence, and so the benchmark can time naive vs. vectorized honestly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.astro.dispersion import K_DM

#: The front end's subband settings, constants rather than choices:
#: ``None`` subbands is round(√n_chan), and a grouping tolerance of 1 sample
#: keeps every channel within 2 samples of its exact shift (the tolerance
#: law).  :func:`plan_dedispersion` takes other settings as arguments, which
#: is how ``benchmarks/bench_frontend_kernels.py`` sweeps its frontier.
N_SUBBANDS: int | None = None
TOL_SAMPLES = 1.0

#: No JIT layer exists; kept because benchmark records report it.
HAS_NUMBA = False

#: The implementation names :func:`resolve_impl` accepts; all mean NumPy.
KERNEL_IMPLS = ("numpy", "auto")

__all__ = [
    "delay_table",
    "shift_table",
    "DedispersionPlan",
    "plan_dedispersion",
    "resolve_impl",
    "boxcar_snr",
    "find_peaks",
    "single_pulse_block_search",
    "N_SUBBANDS",
    "TOL_SAMPLES",
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
    :func:`repro.astro.filterbank.synthesize_filterbank`'s convention.  The
    one home of the ladder check, reached by every dedispersion path: the
    trial DMs must be a 1-D ladder (or one scalar) of finite, non-negative
    values.
    """
    freqs_mhz = np.asarray(freqs_mhz, dtype=np.float64)
    trial_dms = np.atleast_1d(np.asarray(trial_dms, dtype=np.float64))
    if trial_dms.ndim != 1:
        raise ValueError(f"trial DMs must be a 1-D ladder, got shape {trial_dms.shape}")
    bad = np.flatnonzero(~(np.isfinite(trial_dms) & (trial_dms >= 0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"trial DMs must be finite and non-negative, got {float(trial_dms[i])!r} "
            f"at index {i}"
        )
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


# -- dedispersion plans ------------------------------------------------------

#: Bytes of dedispersed rows a streamed search holds at once: 64 rows of
#: 16,384 float32 samples (:attr:`DedispersionPlan.chunk_rows`).
_CHUNK_BYTES = 4 << 20

#: Bytes of stage-1 partial sums a fill holds at once: the
#: (n_subbands × n_samples) partials of a batch of shared groups (4 groups
#: of 8 subbands at 16,384 float32 samples), summed channel-major together.
_PARTIAL_BYTES = 2 << 20


def _float_dtype(dtype, what: str) -> np.dtype:
    """``dtype`` as a NumPy dtype, refused unless floating-point: the 1/√n
    scale and the search statistic need fractions and −inf."""
    dtype = np.dtype(dtype)
    if not np.issubdtype(dtype, np.floating):
        raise ValueError(f"{what} must be a floating-point dtype, got {dtype}")
    return dtype


def _shift_add(
    rows: list[np.ndarray], series: list[np.ndarray], shifts: list[list[int]]
) -> None:
    """``rows[j]`` ← Σᵢ ``series[i]`` advanced by ``shifts[j][i]`` samples.

    The one shift-and-add loop of every row, solo, stage 1 or stage 2.
    Channel-major over blocks of up to ``_BLOCK_ROWS`` rows: each series
    slice is added to every row of a block before the next series, so it is
    read from memory once per block, not once per row.  Every row still
    sums in ``series`` order from zero — the same bits as a row-at-a-time
    loop.  A shift of the row's length or more adds nothing.
    """
    for lo in range(0, len(rows), _BLOCK_ROWS):
        block = rows[lo : lo + _BLOCK_ROWS]
        for row in block:
            row[:] = 0.0
        n = block[0].size
        for src, column in zip(series, zip(*shifts[lo : lo + _BLOCK_ROWS])):
            for row, s in zip(block, column):
                if s < n:
                    row[: n - s] += src[s:]


@dataclass(frozen=True)
class DedispersionPlan:
    """What one dedispersion call computes once per ladder; fills any rows.

    ``shifts[d]`` is trial DM ``d``'s exact shift per channel
    (:func:`shift_table`).  ``group_of[d]`` is the subband group trial DM
    ``d`` shares with its neighbours, or −1 for a group of one: such a row
    is summed from the channels at its exact shifts, the exact row.  A plan
    of singletons is the exact block.  For a shared group
    ``g``, ``stage1[b][g]`` holds its shifts over the channels ``edges[b]``
    and ``stage2[d]`` trial DM ``d``'s shift per subband.  Tables stay int64
    arrays, converted to Python ints a chunk at a time: as lists of ints,
    the fine ladder's exact table alone is ≈ 4 MiB.

    Every row depends only on its own shifts and, in a shared group, on the
    group's partial sums, which :meth:`fill` recomputes for each group a
    range needs — identically.  So a row is the same bits whether it is
    filled with the whole block or in any chunk.
    """

    channels: list[np.ndarray]
    n_samples: int
    dtype: np.dtype
    shifts: np.ndarray
    group_of: np.ndarray
    edges: tuple[tuple[int, int], ...] = ()
    stage1: tuple[np.ndarray, ...] = ()
    stage2: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return len(self.shifts)

    @property
    def solo_rows(self) -> int:
        """Rows summed from the channels: the groups of one."""
        return int(np.count_nonzero(self.group_of < 0))

    @property
    def groups(self) -> int:
        """Groups of the ladder, a group of one counted as one."""
        return self.solo_rows + (len(self.stage1[0]) if self.stage1 else 0)

    @property
    def chunk_rows(self) -> int:
        """Rows per chunk of a streamed search: ``_CHUNK_BYTES`` of rows,
        rounded down to whole ``_BLOCK_ROWS`` blocks, at least one."""
        rows = _CHUNK_BYTES // max(1, self.n_samples * self.dtype.itemsize)
        return max(_BLOCK_ROWS, rows - rows % _BLOCK_ROWS)

    def fill(self, lo: int, out: np.ndarray) -> np.ndarray:
        """Rows ``lo … lo + len(out) − 1`` of the dedispersed block, into
        ``out`` (its old contents are ignored); each row is scaled by
        1/√n_chan once it is summed."""
        scale = self.dtype.type(1.0) / np.sqrt(self.dtype.type(len(self.channels)))
        hi = lo + len(out)
        # Python ints: no per-iteration unboxing in the shift-and-add loop.
        exact = self.shifts[lo:hi].tolist()
        solo: list[int] = []
        members: dict[int, list[int]] = {}
        for i, g in enumerate(self.group_of[lo:hi].tolist()):
            if g < 0:
                solo.append(i)
            else:
                members.setdefault(g, []).append(i)
        if solo:
            _shift_add([out[i] for i in solo], self.channels, [exact[i] for i in solo])
        if members:
            sub = self.stage2[lo:hi].tolist()
            n_sub = len(self.edges)
            # Stage 1 sums a batch of shared groups' partials together,
            # channel-major; ``_PARTIAL_BYTES`` bounds the batch.
            group_bytes = n_sub * max(1, self.n_samples) * self.dtype.itemsize
            batch = max(1, _PARTIAL_BYTES // group_bytes)
            groups = list(members)
            partial = np.empty((min(batch, len(groups)), n_sub, self.n_samples), self.dtype)
            for at in range(0, len(groups), batch):
                some = groups[at : at + batch]
                # Stage 1: each subband's sum at each group's representative DM.
                for k, ((a, b), table) in enumerate(zip(self.edges, self.stage1)):
                    _shift_add(
                        list(partial[: len(some), k]), self.channels[a:b], table[some].tolist()
                    )
                # Stage 2: the partials, shifted by each member's exact trial DM.
                for j, g in enumerate(some):
                    rows = members[g]
                    _shift_add([out[i] for i in rows], list(partial[j]), [sub[i] for i in rows])
        out *= scale
        return out

    def block(self) -> np.ndarray:
        """The whole (n_dms × n_samples) block: every row filled."""
        return self.fill(0, np.empty((self.n_rows, self.n_samples), dtype=self.dtype))


def _channel_rows(
    data: np.ndarray, freqs_mhz: np.ndarray, out_dtype
) -> tuple[list[np.ndarray], np.ndarray, np.dtype]:
    """The filterbank's channels as rows in ``out_dtype``, checked."""
    dtype = _float_dtype(out_dtype, "out_dtype")
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("data must be 2-D (channels × samples)")
    if data.shape[0] == 0:
        raise ValueError("data has 0 channels; dedispersion needs at least 1")
    freqs_mhz = np.asarray(freqs_mhz, dtype=np.float64)
    if freqs_mhz.shape != data.shape[:1]:
        raise ValueError(
            f"{data.shape[0]} channels but {freqs_mhz.size} channel frequencies"
        )
    return list(np.ascontiguousarray(data, dtype=dtype)), freqs_mhz, dtype


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


def check_subband_settings(n_subbands: int | None, tol_samples: float) -> None:
    """Reject subband settings that would silently mis-group the DM ladder:
    a non-finite ``tol_samples`` puts every trial DM in one group, and a
    fractional or boolean ``n_subbands`` is not a channel count."""
    if n_subbands is not None and (
        isinstance(n_subbands, bool)
        or not isinstance(n_subbands, numbers.Integral)
        or n_subbands < 1
    ):
        raise ValueError(f"n_subbands must be an integer >= 1, got {n_subbands!r}")
    if not (math.isfinite(tol_samples) and tol_samples > 0):
        raise ValueError(f"tol_samples must be finite and positive, got {tol_samples!r}")


def plan_dedispersion(
    data: np.ndarray,
    freqs_mhz: np.ndarray,
    f_ref_mhz: float,
    sample_time_s: float,
    trial_dms: np.ndarray,
    out_dtype: np.dtype | type = np.float64,
    *,
    n_subbands: int | None = N_SUBBANDS,
    tol_samples: float = TOL_SAMPLES,
) -> DedispersionPlan:
    """The one dedispersion engine: the plan of the whole ladder.

    Two-stage subband dedispersion, reusing partial sums across trial DMs.
    Stage 1 dedisperses each subband once per *group* of neighbouring trial
    DMs (intra-subband shifts evaluated at the group's first DM); stage 2
    shifts and sums the ``n_subbands`` partial series per trial DM.  Groups
    are chosen greedily so the worst-case intra-subband residual shift is at
    most ``tol_samples``; with rounding, every channel lands within
    ``tol_samples + 1`` samples of its exact :func:`shift_table` shift.
    A group with one member reuses nothing, so its row is summed from the
    channels at its exact shifts: the exact row, for ``n_chan`` slice-adds
    instead of ``n_chan + n_subbands``.

    Cost is ``n_shared_groups × n_chan + n_shared_rows × n_subbands +
    n_solo_rows × n_chan`` slice-adds instead of ``n_dms × n_chan`` — a
    large win on fine DM ladders (the low-DM bands of
    :class:`repro.astro.dispersion.DMGrid`, where spacing is 0.01–0.1),
    approaching the classic ~O(√n_chan) saving.  On coarse grids every DM
    forms its own group and the block is the exact one, bit for bit; on
    channels not in ascending frequency order (each subband's reference is
    its top channel) every row is a group of one.  ``n_subbands`` and
    ``tol_samples`` default to :data:`N_SUBBANDS` and :data:`TOL_SAMPLES`.
    Every check runs here, before any row is summed.
    """
    channels, freqs_mhz, dtype = _channel_rows(data, freqs_mhz, out_dtype)
    check_subband_settings(n_subbands, tol_samples)
    # The exact shifts check the ladder before it is grouped; groups of one
    # sum at them, and stage 2 reads its subband references' columns.
    shifts = shift_table(freqs_mhz, f_ref_mhz, trial_dms, sample_time_s)
    n_chan, n_samples = len(channels), np.shape(data)[1]
    if not np.all(np.diff(freqs_mhz) > 0):
        solo = np.full(len(shifts), -1, dtype=np.int64)
        return DedispersionPlan(channels, n_samples, dtype, shifts, solo)
    if n_subbands is None:
        n_subbands = max(1, int(round(np.sqrt(n_chan))))
    edges = _subband_edges(n_chan, min(n_subbands, n_chan))
    # Reference of each subband: its highest channel.
    tops = [hi - 1 for _lo, hi in edges]
    sub_refs = freqs_mhz[tops]

    # Greedy grouping of the sorted ladder: a group spans at most ddm_max.
    g_span = max(
        float(np.max(np.abs(freqs_mhz[lo:hi] ** -2.0 - sub_refs[b] ** -2.0)))
        for b, (lo, hi) in enumerate(edges)
    )
    if g_span <= 0:  # single channel per subband: stage 1 shifts are exact
        ddm_max = np.inf
    else:
        ddm_max = tol_samples * sample_time_s / (K_DM * g_span)
    trial_dms = np.atleast_1d(np.asarray(trial_dms, dtype=np.float64))
    order = np.argsort(trial_dms, kind="stable")
    group_of = np.empty(trial_dms.size, dtype=np.int64)
    group_reps: list[float] = []
    for pos, dm in enumerate(trial_dms[order].tolist()):
        if not group_reps or dm - group_reps[-1] > ddm_max:
            group_reps.append(dm)
        group_of[order[pos]] = len(group_reps) - 1

    # Groups of one leave the grouping (−1); shared groups keep their order.
    shared = np.bincount(group_of, minlength=len(group_reps)) > 1
    group_of = np.where(shared, np.cumsum(shared) - 1, -1)[group_of]

    # Stage-1 shift tables, one per subband over the shared groups'
    # representatives.  A fill sums a few groups' partials at a time
    # (``_PARTIAL_BYTES``) — materializing all groups at once is hundreds
    # of MB at survey scale.
    reps = np.asarray(group_reps)[shared]
    stage1 = tuple(
        shift_table(freqs_mhz[lo:hi], float(sub_refs[b]), reps, sample_time_s)
        for b, (lo, hi) in enumerate(edges)
    )
    return DedispersionPlan(
        channels, n_samples, dtype, shifts, group_of, tuple(edges), stage1,
        shifts[:, tops],
    )


# -- O(n) boxcar matched filtering -------------------------------------------

#: Rows per block of :func:`single_pulse_block_search`: a block's scratch
#: buffers are ≈ 0.5 MB each at 16,384 float32 samples per row.
_BLOCK_ROWS = 8

#: ``C`` of the screen's slack (module docstring, "Screen law"); the proof
#: needs 6.2.
_SCREEN_SLACK = 10.0


def _check_widths(widths) -> tuple[int, ...]:
    """Boxcar widths as a non-empty tuple of positive Python ints, in the
    given order."""
    widths = tuple(widths)
    if not widths:
        raise ValueError("widths must name at least one boxcar width, got ()")
    for w in widths:
        if isinstance(w, bool) or not isinstance(w, numbers.Integral) or w < 1:
            raise ValueError(f"widths must be positive integers, got {widths!r}")
    return tuple(int(w) for w in widths)


def _noise_stats(
    rows: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (median, robust sigma) of a (k, n) block, both float64.

    sigma = 1.4826 × MAD, floored at 1e-9 (the seed's convention).  Both are
    the float64 images of the row's own statistics, as ``float()`` of a
    per-row median gives them.  ``scratch`` (same shape) is partitioned in
    place, not copied (module docstring, performance notes).
    """
    h = rows.shape[1] // 2
    half = rows.dtype.type(0.5)

    def median(a: np.ndarray) -> np.ndarray:
        a.partition(h, axis=1)
        if rows.shape[1] % 2:
            return a[:, h].copy()
        # The (h-1)-th order statistic is the max of the left partition
        # half; a tuple kth costs ~10× a single kth + max pass.
        return (a[:, :h].max(axis=1) + a[:, h]) * half

    scratch[:] = rows
    med = median(scratch)
    np.subtract(rows, med[:, None], out=scratch)
    np.abs(scratch, out=scratch)
    sigma = median(scratch) * rows.dtype.type(1.4826)
    return med.astype(np.float64), np.maximum(sigma.astype(np.float64), 1e-9)


def _cumsum(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row prefix sums with a leading zero column: ``out[:, i]`` = Σ rows[:, :i]."""
    out[:, 0] = 0.0
    np.cumsum(rows, axis=1, out=out[:, 1:])
    return out


def _window_z(sums: np.ndarray, w: int, med: np.ndarray | float) -> np.ndarray:
    """The window statistic, in place: ``sums/√w − √w·med``.

    The one home of the expression every emitted value is computed with.
    Both scalars are float64, so on a float32 block each step rounds through
    float64 (NumPy's buffered cast loop) — which is what makes it slow, and
    why the screen below does not use it.
    """
    sums *= 1.0 / np.sqrt(w)
    sums -= np.sqrt(w) * med
    return sums


def _exact_best(
    csum: np.ndarray,
    rows: np.ndarray,
    samples: np.ndarray,
    widths: tuple[int, ...],
    med: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Max-over-widths window statistic and its width at ``(rows, samples)``.

    For a left-aligned width-``w`` window starting at ``i``,
    ``z_w[i] = (Σ series[i:i+w]) / √w − √w · med``; dividing by sigma gives
    the S/N, and since sigma is shared across widths the max is taken on
    ``z``.  The width is the *first* in ``widths`` attaining the max (the
    seed's tie rule); where no width fits, or the max is not finite, it is
    the seed's default 1.  Widths longer than the series are skipped.
    """
    n = csum.shape[1] - 1
    best = np.full(samples.size, -np.inf, dtype=csum.dtype)
    width = np.ones(samples.size, dtype=np.int64)
    for w in widths:
        if w > n:
            continue
        fits = np.nonzero(samples <= n - w)[0]
        r, s = rows[fits], samples[fits]
        z = _window_z(csum[r, s + w] - csum[r, s], w, med[r])
        width[fits[z > best[fits]]] = w
        best[fits] = np.maximum(best[fits], z)
    width[~np.isfinite(best)] = 1
    return best, width


def _window_floors(
    threshold: float,
    sigma: np.ndarray,
    med: np.ndarray,
    widths: tuple[int, ...],
    dtype: np.dtype,
) -> np.ndarray:
    """The screen's window-sum thresholds ``T_w``, shape (widths, rows).

    Per row, the floor ``Θ = t·σ'·(1 − eps)`` of the exact statistic; per
    width, the float64 bound ``√w·(Θ + S) − C·eps·√w·(Θ + |S|)`` with
    ``S = √w·med``, rounded down to ``dtype`` (module docstring, "Screen
    law").
    """
    eps = float(np.finfo(dtype).eps)
    floor = threshold * sigma.astype(dtype).astype(np.float64) * (1.0 - eps)
    root = np.sqrt(np.asarray(widths, dtype=np.float64))[:, None]
    s = root * med
    bound = root * (floor + s) - _SCREEN_SLACK * eps * root * (floor + np.abs(s))
    t = bound.astype(dtype)
    return np.where(t > bound, np.nextafter(t, dtype.type(-np.inf)), t)


def _peak_mask(
    at: np.ndarray, left: np.ndarray, right: np.ndarray, threshold: float
) -> np.ndarray:
    """The seed's peak rule: ``at >= threshold``, ``at >= left``, ``at > right``."""
    return (at >= threshold) & (at >= left) & (at > right)


def boxcar_snr(
    series: np.ndarray,
    widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> tuple[np.ndarray, np.ndarray]:
    """Best boxcar SNR and width per sample for one dedispersed series.

    Returns ``(snr, best_width)``; ``snr[i]`` is the SNR of the best
    left-aligned window starting at ``i`` (−inf where no configured width
    fits), against median/MAD noise estimated once from the raw series.
    O(n) per width via cumulative sums: the block search's helpers on a
    one-row block, with the exact statistic at every sample.
    """
    series = np.ascontiguousarray(series)
    _float_dtype(series.dtype, "the boxcar search's series")
    widths = _check_widths(widths)
    n = series.size
    if n == 0:
        return np.empty(0, dtype=series.dtype), np.empty(0, dtype=np.int64)
    row = series.reshape(1, n)
    med, sigma = _noise_stats(row, np.empty_like(row))
    csum = _cumsum(row, np.empty((1, n + 1), dtype=series.dtype))
    best, width = _exact_best(
        csum, np.zeros(n, dtype=np.int64), np.arange(n), widths, med
    )
    return best / series.dtype.type(sigma[0]), width


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
    return idx[_peak_mask(snr[idx], left, right, threshold)]


def single_pulse_block_search(
    block: np.ndarray,
    threshold: float,
    widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    boxcar: str = "cumsum",
    impl: str = "numpy",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boxcar-search every row of a dedispersed block.

    Returns ``(row_idx, sample, snr, width)`` arrays ordered by
    (row, sample) — for every row, exactly what :func:`boxcar_snr` followed
    by :func:`find_peaks` gives, bit for bit.  Rows are processed
    ``_BLOCK_ROWS`` at a time: noise statistics, prefix sums and a
    compare-only screen for the whole block, then the exact statistic only
    at the screen's candidates and their two neighbours (module docstring,
    "Screen law").  ``boxcar`` and ``impl`` are validated (``"cumsum"`` and
    :func:`resolve_impl`'s names are the only values) and select nothing.
    """
    resolve_impl(impl)
    if boxcar != "cumsum":
        raise ValueError(f"boxcar must be 'cumsum', got {boxcar!r}")
    block = np.asarray(block)
    if block.ndim != 2:
        raise ValueError("block must be 2-D (trial DMs × samples)")
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")
    _float_dtype(block.dtype, "the boxcar search's series")
    widths = _check_widths(widths)
    n_rows, n = block.shape
    dtype = block.dtype
    fitting = tuple(w for w in widths if w <= n)
    k = min(_BLOCK_ROWS, n_rows)
    csum = np.empty((k, n + 1), dtype=dtype)
    buf = np.empty((k, n), dtype=dtype)
    hit = np.empty((k, n), dtype=bool)
    keep = np.empty((k, n), dtype=bool)
    found: list[tuple[np.ndarray, ...]] = []
    for lo in range(0, n_rows if n else 0, _BLOCK_ROWS):  # (rows, 0): nothing
        rows = block[lo : lo + _BLOCK_ROWS]
        k = rows.shape[0]
        med, sigma = _noise_stats(rows, buf[:k])
        _cumsum(rows, csum[:k])
        # The screen: per width, one subtraction of prefix sums compared
        # with the row's window-sum threshold, OR-ed into ``keep``.
        keep[:k] = False
        for w, t in zip(fitting, _window_floors(threshold, sigma, med, fitting, dtype)):
            m = n - w + 1
            sums = np.subtract(csum[:k, w:], csum[:k, :m], out=buf[:k, :m])
            np.greater_equal(sums, t[:, None], out=hit[:k, :m])
            keep[:k, :m] |= hit[:k, :m]
        # flatnonzero + divmod: ~8× a 2-D nonzero.
        r, s = np.divmod(np.flatnonzero(keep[:k]), n)
        if r.size == 0:
            continue
        # Exact values at each candidate and both neighbours: [left, at, right].
        r3 = np.tile(r, 3)
        s3 = np.concatenate([np.maximum(s - 1, 0), s, np.minimum(s + 1, n - 1)])
        z, width = _exact_best(csum[:k], r3, s3, widths, med)
        snr = z / sigma.astype(dtype)[r3]
        left, at, right = np.split(snr, 3)
        left[s == 0] = -np.inf
        right[s == n - 1] = -np.inf
        peak = _peak_mask(at, left, right, threshold)
        if peak.any():
            found.append(
                (r[peak] + lo, s[peak], at[peak], np.split(width, 3)[1][peak])
            )
    if not found:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=dtype), empty
    return tuple(np.concatenate(col) for col in zip(*found))
