"""In-stream drift monitors over the serving score distribution.

Two complementary detectors, both windowed over recent micro-batches:

- **Score-distribution shift**: the population stability index (PSI) and
  the two-sample Kolmogorov–Smirnov statistic between a *reference* window
  (older batches) and a *current* window (newest batches) of serving
  scores (the model's pulsar-probability per finalized pulse).  PSI is the
  credit-scoring industry's standard drift measure; KS catches shape
  changes PSI's fixed binning can miss.
- **Cluster-rate alarm**: the paper's own RFI heuristic — "many objects
  detected in a short time interval are suspected to be RFIs" — applied to
  the per-batch finalized-cluster rate: the current window's mean rate
  exceeding ``RATE_RATIO`` × the reference window's mean is an alarm even
  when scores look stable (a storm floods the stream with negatives the
  model may confidently reject).

An alarm must *sustain* for ``SUSTAIN`` consecutive batches before the
monitor declares drift (``drifted_now``), and the monitor then latches
until :meth:`DriftMonitor.rebase` (called after a model swap, which moves
the score distribution by construction) or until the stream measures calm
again.  All state is a few numbers and two bounded deques — checkpoint and
restore round-trip exactly (:meth:`snapshot` / :meth:`restore`).

Everything here is pure arithmetic on the inputs — no RNG, no wall clock —
so drift timelines are byte-deterministic for a fixed campaign seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["DriftMonitor", "DriftSignal"]

_EPS = 1e-4


#: Batches in the reference (older) window.
REF_WINDOW = 12
#: Batches in the current (newest) window.
CUR_WINDOW = 6
#: Histogram bins over [0, 1] for PSI.
N_BINS = 8
PSI_THRESHOLD = 0.25
KS_THRESHOLD = 0.35
#: Minimum scores on *each* side before PSI/KS are evaluated — the
#: distribution tests are pure noise on a handful of samples.
MIN_SCORES = 12
#: Batches the reference window must hold before any detector may
#: alarm (a 2-batch reference is not a baseline).
MIN_REF_BATCHES = 4
#: Current/reference cluster-rate ratio that flags an RFI flood.
RATE_RATIO = 3.0
#: Minimum clusters across the reference window before the rate alarm
#: can fire (tiny baselines make ratios meaningless).
MIN_RATE_EVENTS = 8
#: Consecutive alarming batches required to declare drift.
SUSTAIN = 2
#: Consecutive calm batches required to re-arm after a declaration.
RECOVER = 4


@dataclass(frozen=True)
class DriftSignal:
    """One batch's drift measurement."""

    batch_id: int
    psi: float
    ks: float
    rate_ratio: float
    #: Which detectors exceeded their threshold this batch.
    reasons: tuple[str, ...]
    #: This batch exceeded at least one threshold (pre-sustain).
    alarming: bool
    #: Drift declared *on this batch* (alarm sustained, monitor armed).
    drifted: bool


def _psi(ref: np.ndarray, cur: np.ndarray, n_bins: int) -> float:
    """Population stability index between two score samples on [0, 1]."""
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    ref_frac = np.histogram(ref, bins=edges)[0] / max(1, ref.size)
    cur_frac = np.histogram(cur, bins=edges)[0] / max(1, cur.size)
    ref_frac = np.clip(ref_frac, _EPS, None)
    cur_frac = np.clip(cur_frac, _EPS, None)
    return float(np.sum((cur_frac - ref_frac) * np.log(cur_frac / ref_frac)))


def _ks(ref: np.ndarray, cur: np.ndarray) -> float:
    """Two-sample KS statistic (max ECDF gap), no scipy needed."""
    if ref.size == 0 or cur.size == 0:
        return 0.0
    grid = np.sort(np.concatenate([ref, cur]))
    ref_cdf = np.searchsorted(np.sort(ref), grid, side="right") / ref.size
    cur_cdf = np.searchsorted(np.sort(cur), grid, side="right") / cur.size
    return float(np.max(np.abs(ref_cdf - cur_cdf)))


class DriftMonitor:
    """Windowed drift detection over one tenant's serving stream.

    Feed it every completed batch via :meth:`update` — scores may be empty
    (a batch that finalized no pulses still carries rate information).
    """

    def __init__(self) -> None:
        #: Per-batch score arrays, oldest first.
        self._scores: deque[list[float]] = deque(maxlen=REF_WINDOW + CUR_WINDOW)
        #: Per-batch finalized-cluster counts, oldest first.
        self._rates: deque[int] = deque(maxlen=REF_WINDOW + CUR_WINDOW)
        self._alarm_streak = 0
        self._calm_streak = 0
        self._latched = False
        self.n_detections = 0

    # -- the measurement ----------------------------------------------------
    def update(self, batch_id: int, scores: Any, n_clusters: int) -> DriftSignal:
        """Ingest one batch; returns this batch's :class:`DriftSignal`."""
        scores = [float(s) for s in np.asarray(scores, dtype=float).ravel()]
        self._scores.append(scores)
        self._rates.append(int(n_clusters))

        psi = ks = 0.0
        rate_ratio = 1.0
        reasons: list[str] = []
        if len(self._scores) >= CUR_WINDOW + MIN_REF_BATCHES:
            ref_batches = list(self._scores)[:-CUR_WINDOW]
            cur_batches = list(self._scores)[-CUR_WINDOW:]
            ref = np.array([s for b in ref_batches for s in b], dtype=float)
            cur = np.array([s for b in cur_batches for s in b], dtype=float)
            if ref.size >= MIN_SCORES and cur.size >= MIN_SCORES:
                psi = _psi(ref, cur, N_BINS)
                ks = _ks(ref, cur)
                if psi > PSI_THRESHOLD:
                    reasons.append("psi")
                if ks > KS_THRESHOLD:
                    reasons.append("ks")
            ref_rates = list(self._rates)[:-CUR_WINDOW]
            cur_rates = list(self._rates)[-CUR_WINDOW:]
            ref_mean = sum(ref_rates) / len(ref_rates)
            cur_mean = sum(cur_rates) / len(cur_rates)
            if ref_mean > 0:
                rate_ratio = cur_mean / ref_mean
            elif cur_mean > 0:
                rate_ratio = RATE_RATIO + 1.0
            if (sum(ref_rates) >= MIN_RATE_EVENTS
                    and rate_ratio > RATE_RATIO):
                reasons.append("cluster_rate")

        alarming = bool(reasons)
        if alarming:
            self._alarm_streak += 1
            self._calm_streak = 0
        else:
            self._alarm_streak = 0
            self._calm_streak += 1
            if self._latched and self._calm_streak >= RECOVER:
                self._latched = False

        drifted = (not self._latched) and self._alarm_streak >= SUSTAIN
        if drifted:
            self._latched = True
            self.n_detections += 1
        return DriftSignal(
            batch_id=batch_id, psi=round(psi, 6), ks=round(ks, 6),
            rate_ratio=round(rate_ratio, 6), reasons=tuple(reasons),
            alarming=alarming, drifted=drifted,
        )

    # -- lifecycle -----------------------------------------------------------
    def rebase(self) -> None:
        """Forget history and re-arm — called after a model hot-swap, which
        moves the score distribution by construction (comparing across the
        swap would re-detect the swap itself as drift)."""
        self._scores.clear()
        self._rates.clear()
        self._alarm_streak = 0
        self._calm_streak = 0
        self._latched = False

    # -- checkpoint/restore --------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-able state; :meth:`restore` round-trips it exactly."""
        return {
            "scores": [list(b) for b in self._scores],
            "rates": list(self._rates),
            "alarm_streak": self._alarm_streak,
            "calm_streak": self._calm_streak,
            "latched": self._latched,
            "n_detections": self.n_detections,
        }

    def restore(self, state: dict[str, Any]) -> None:
        self._scores.clear()
        self._scores.extend([float(s) for s in b] for b in state["scores"])
        self._rates.clear()
        self._rates.extend(int(r) for r in state["rates"])
        self._alarm_streak = int(state["alarm_streak"])
        self._calm_streak = int(state["calm_streak"])
        self._latched = bool(state["latched"])
        self.n_detections = int(state["n_detections"])
