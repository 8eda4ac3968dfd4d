"""Algorithm 1: the D-RAPID peak search state machine.

The search walks a cluster's SPEs in DM order, divided into bins
(:func:`repro.core.regression.bin_edges`), fits a trend slope to each bin,
and classifies each slope against the threshold ``M`` as DOWN (< -M), FLAT
(|b| ≤ M) or UP (> M).  A potential single pulse ``SP`` is opened on a rise,
gets its *peak* marked when the trend turns down, and is emitted once its
descent completes (or the profile ends).  Multiple peaks in one cluster
yield multiple single pulses — the behaviour that lets D-RAPID find 188
single pulses in Fig. 1's data where DPG-mode RAPID found one.

The paper writes the search recursively (``search(next, bn)``);
:func:`find_single_pulses` is the iterative equivalent without the
recursion-depth hazard (clusters can have thousands of SPEs).  The
transliterated recursion is a test oracle
(``tests/oracles/record_path.py``) and a property-based test asserts the
two always agree.

Deviations from the published pseudocode (which contains unreachable and
ambiguous branches) are confined to ``_step`` and documented inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bins import DEFAULT_SLOPE_THRESHOLD, DEFAULT_WEIGHT, dynamic_bin_size
from repro.core.regression import bin_slopes

DOWN, FLAT, UP = -1, 0, 1


def classify_trend(slope: float, threshold: float) -> int:
    if slope < -threshold:
        return DOWN
    if slope > threshold:
        return UP
    return FLAT


@dataclass(frozen=True)
class SearchParams:
    """Tunable parameters of Algorithm 1 (paper defaults: w=0.75, M=0.5)."""

    weight: float = DEFAULT_WEIGHT
    slope_threshold: float = DEFAULT_SLOPE_THRESHOLD

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.slope_threshold < 0:
            raise ValueError(f"slope_threshold must be >= 0, got {self.slope_threshold}")


@dataclass
class PulseSpan:
    """A single pulse expressed as a bin range with a marked peak bin."""

    start_bin: int
    peak_bin: int
    end_bin: int


@dataclass
class _Candidate:
    start_bin: int
    has_peak: bool = False
    peak_bin: int = -1


@dataclass
class _MachineState:
    sp: _Candidate | None = None
    pulses: list[PulseSpan] = field(default_factory=list)


def _emit(state: _MachineState, end_bin: int) -> None:
    sp = state.sp
    assert sp is not None and sp.has_peak
    state.pulses.append(PulseSpan(sp.start_bin, sp.peak_bin, max(end_bin, sp.start_bin)))


def _step(state: _MachineState, prev: int, cur: int, bin_idx: int) -> None:
    """One transition of the Algorithm 1 state machine.

    ``bin_idx`` is the index of the *current* bin.
    """
    sp = state.sp
    if prev == DOWN:
        if cur == FLAT:
            if sp is None or not sp.has_peak:
                # Descent levelled out with nothing complete: restart here.
                state.sp = _Candidate(start_bin=bin_idx)
            # (flat after a completed descent: keep SP; emitted on next rise
            #  or at profile end)
        elif cur == UP:
            if sp is not None and sp.has_peak:
                _emit(state, end_bin=bin_idx - 1)
                state.sp = _Candidate(start_bin=bin_idx)
            elif sp is None:
                # Deviation: the paper leaves DOWN→UP with no SP unspecified;
                # a rise with no open candidate starts one.
                state.sp = _Candidate(start_bin=bin_idx)
        # DOWN→DOWN: keep descending.
    elif prev == FLAT:
        if cur == DOWN:
            if sp is not None and not sp.has_peak:
                sp.has_peak = True
                sp.peak_bin = bin_idx - 1
            elif sp is None:
                state.sp = _Candidate(start_bin=bin_idx)
        elif cur == FLAT:
            if sp is not None and sp.has_peak:
                _emit(state, end_bin=bin_idx)
                state.sp = _Candidate(start_bin=bin_idx)
            else:
                # The paper's dangling "else: SP <- NULL": a flat plateau
                # with no peak discards the candidate.
                state.sp = None
        else:  # UP
            if sp is None:
                state.sp = _Candidate(start_bin=bin_idx)
            elif sp.has_peak:
                _emit(state, end_bin=bin_idx - 1)
                state.sp = _Candidate(start_bin=bin_idx)
            # else: still climbing the same SP.
    else:  # prev == UP
        if cur == DOWN:
            if sp is not None and not sp.has_peak:
                sp.has_peak = True
                sp.peak_bin = bin_idx - 1
            elif sp is None:
                # Deviation: the paper assumes an SP exists here (an
                # unguarded "peak found for this SP"); guard by opening one
                # whose climb we just watched.
                state.sp = _Candidate(start_bin=max(0, bin_idx - 1), has_peak=True,
                                      peak_bin=max(0, bin_idx - 1))
        elif cur == UP:
            if sp is None:
                state.sp = _Candidate(start_bin=bin_idx)
        # UP→FLAT: no action in the paper's pseudocode — the peak is only
        # declared when the trend actually turns down.


def _finalize(state: _MachineState, last_bin: int) -> list[PulseSpan]:
    """Emit a trailing candidate whose peak was found but whose descent ran
    into the end of the profile (the pseudocode's implicit final write)."""
    if state.sp is not None and state.sp.has_peak:
        _emit(state, end_bin=last_bin)
    return state.pulses


def _bin_trend_slopes(dms, snrs, params: SearchParams, binsize, lengths=None):
    """Check DM-sorted profile(s) along the last axis and fit their bin trends.

    ``lengths`` marks a padded block (see :func:`bin_slopes`): only each
    row's first ``lengths[r]`` points must be sorted.
    """
    dms = np.asarray(dms, dtype=float)
    snrs = np.asarray(snrs, dtype=float)
    if dms.shape != snrs.shape:
        raise ValueError("dms and snrs must have equal length")
    descending = np.diff(dms, axis=-1) < 0
    if lengths is not None:
        descending &= np.arange(1, dms.shape[-1]) < np.asarray(lengths)[:, None]
    if np.any(descending):
        raise ValueError("dms must be sorted ascending (sort the cluster by DM first)")
    if binsize is None:
        sizes = [dms.shape[-1]] if lengths is None else np.asarray(lengths).tolist()
        binsize = [dynamic_bin_size(n, params.weight) for n in sizes]
    return bin_slopes(dms, snrs, binsize, lengths)


def find_single_pulses(
    dms: np.ndarray,
    snrs: np.ndarray,
    params: SearchParams = SearchParams(),
    binsize: int | None = None,
) -> tuple[list[PulseSpan], list[tuple[int, int]]]:
    """Iterative Algorithm 1 over a DM-sorted SNR profile.

    Returns the pulse spans (bin units) and the bin index ranges, so callers
    can map spans back to SPE indices.
    """
    slopes, (starts, stops) = _bin_trend_slopes(dms, snrs, params, binsize)
    trends = [classify_trend(float(slope), params.slope_threshold) for slope in slopes]
    return _spans_of_trends(trends), list(zip(starts.tolist(), stops.tolist()))


def _spans_of_trends(trends: list[int]) -> list[PulseSpan]:
    """Run the state machine over one profile's classified bin trends."""
    state = _MachineState()
    prev_trend = FLAT  # b_{n-1} initialized to 0
    for bin_idx, cur in enumerate(trends):
        _step(state, prev_trend, cur, bin_idx)
        prev_trend = cur
    return _finalize(state, last_bin=len(trends) - 1)


def find_single_pulses_rows(
    dms: np.ndarray,
    snrs: np.ndarray,
    params: SearchParams = SearchParams(),
    binsize: int | np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> tuple[list[list[PulseSpan]], tuple[np.ndarray, np.ndarray]]:
    """:func:`find_single_pulses` on every row of a ``(rows, width)`` block.

    Rows may be ragged: with ``lengths``, row ``r`` is its first
    ``lengths[r]`` points followed by ``-0.0`` padding, and ``binsize`` may
    be one bin size per row, so clusters of any sizes share one call; each
    row still equals its own 1-D call bit for bit, because
    :func:`bin_slopes` sums every row over its size class.  One
    :func:`bin_slopes` call and one vectorised trend classification serve
    all rows; the state machine runs only on rows with a downward trend (a
    peak is marked only on a turn down), over that row's own bins.
    Returns each row's spans and the per-row bin ``(starts, stops)``.
    """
    slopes, edges = _bin_trend_slopes(dms, snrs, params, binsize, lengths)
    m = params.slope_threshold
    trends = (slopes > m).astype(np.int8) - (slopes < -m)
    n_bins = np.count_nonzero(edges[1], axis=1)
    spans: list[list[PulseSpan]] = [[] for _ in range(len(slopes))]
    # Only a turn DOWN marks a peak, and only a candidate with a peak is
    # ever emitted: rows that never trend down yield nothing.
    for row in np.nonzero((trends < 0).any(axis=1))[0].tolist():
        spans[row] = _spans_of_trends(trends[row, : n_bins[row]].tolist())
    return spans, edges

