"""Noise and radio-frequency-interference (RFI) event generation.

Negatives in the paper's benchmarks are "single pulses from noise or RFI".
Two mechanisms produce them here:

- **thermal noise clusters**: chance coincidences of threshold-crossing
  noise samples at adjacent trial DMs/times.  These form small, weak,
  shapeless clusters (no coherent SNR-vs-DM peak).
- **broadband RFI**: terrestrial impulses are *undispersed*, so they appear
  strongest at DM ≈ 0 and smear out to a slowly decaying SNR tail across a
  wide DM range at nearly constant time — a vertical stripe in DM-vs-time,
  visually and statistically distinct from a real pulse's peaked profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.astro.dispersion import DMGrid
from repro.astro.spe import SPE


@dataclass(frozen=True)
class RFIStormModel:
    """Time-correlated bursty interference: a two-state Markov chain.

    The chain steps every ``interval_s`` seconds between a *quiet* and a
    *storm* state.  Broadband bursts arrive as a Poisson process whose rate
    is ``quiet_rate_hz`` in quiet intervals and
    ``quiet_rate_hz × storm_rate_multiplier`` inside storms, so bursts come
    in seasons rather than uniformly — the signature real RFI environments
    show (and what the cluster-rate drift alarm keys on).  During a storm
    the noise floor is inflated, which *suppresses* the measured SNR of
    every non-storm event by ``snr_suppression``.
    """

    p_on: float = 0.10      #: per-step probability quiet → storm
    p_off: float = 0.30     #: per-step probability storm → quiet
    interval_s: float = 5.0  #: Markov chain step length
    quiet_rate_hz: float = 0.02   #: broadband-burst rate outside storms
    storm_rate_multiplier: float = 12.0  #: rate boost inside storms
    snr_suppression: float = 0.7  #: SNR factor applied to co-temporal events
    start_in_storm: bool = False  #: initial chain state

    def windows(
        self, obs_length_s: float, rng: np.random.Generator
    ) -> list[tuple[float, float]]:
        """Simulate the chain; return merged [start, end) storm windows."""
        windows: list[tuple[float, float]] = []
        in_storm = self.start_in_storm
        t = 0.0
        while t < obs_length_s:
            end = min(t + self.interval_s, obs_length_s)
            if in_storm:
                if windows and windows[-1][1] == t:
                    windows[-1] = (windows[-1][0], end)
                else:
                    windows.append((t, end))
            flip = self.p_off if in_storm else self.p_on
            if float(rng.random()) < flip:
                in_storm = not in_storm
            t = end
        return windows

    def in_window(
        self, time_s: float, windows: list[tuple[float, float]]
    ) -> bool:
        return any(lo <= time_s < hi for lo, hi in windows)


def generate_noise_spes(
    n_clusters: int,
    obs_length_s: float,
    grid: DMGrid,
    sample_time_s: float = 6.4e-5,
    snr_threshold: float = 5.0,
    rng: np.random.Generator | None = None,
) -> list[SPE]:
    """Clusters of weak, incoherent noise events.

    Cluster sizes follow a heavy-tailed (geometric) distribution: mostly a
    handful of events, occasionally tens — matching the paper's observation
    that real cluster files have a median size of ~19 SPEs with a long tail.
    """
    rng = rng or np.random.default_rng(0)
    trials = grid.trial_dms().tolist()
    last = len(trials) - 1
    spes: list[SPE] = []
    for _ in range(n_clusters):
        size = 2 + int(rng.geometric(0.12))
        center_idx = int(rng.integers(0, len(trials)))
        t0 = float(rng.uniform(0.0, obs_length_s))
        for _ in range(size):
            idx = min(max(center_idx + int(rng.integers(-6, 7)), 0), last)
            dm = trials[idx]
            # Exponential tail above threshold: almost all noise events weak.
            snr = snr_threshold + float(rng.exponential(0.7))
            t = t0 + float(rng.normal(0.0, 0.05))
            if not 0.0 <= t < obs_length_s:
                continue
            spes.append(
                SPE(dm=dm, snr=round(snr, 3), time_s=round(t, 6),
                    sample=int(t / sample_time_s), downfact=int(rng.integers(1, 5)))
            )
    return spes


def generate_pulse_mimic_spes(
    n_mimics: int,
    obs_length_s: float,
    grid: DMGrid,
    sample_time_s: float = 6.4e-5,
    snr_threshold: float = 5.0,
    rng: np.random.Generator | None = None,
) -> list[SPE]:
    """Dispersed-RFI mimics: peaked SNR-vs-DM profiles that are *not* pulses.

    Swept-frequency interference and chance alignments of impulsive RFI can
    dedisperse coherently at a non-zero DM, producing candidates that look
    like single pulses (these are the "manually verified" negatives of
    Section 4 — verification is needed precisely because they mimic pulses).
    They make the binary classification problem genuinely hard: the profile
    is peaked like a real pulse, but the peak DM is uncorrelated with
    brightness/width structure, the profile is asymmetric, and the time
    footprint is wider and noisier.
    """
    rng = rng or np.random.default_rng(0)
    trials = grid.trial_dms()
    spes: list[SPE] = []
    for _ in range(n_mimics):
        t0 = float(rng.uniform(0.0, obs_length_s))
        peak_dm = float(rng.uniform(trials[0], trials[-1]))
        peak_snr = snr_threshold + float(rng.exponential(6.0)) + 0.5
        # Asymmetric pseudo-pulse: different decay scales on each side, in
        # ladder-step units so mimics exist at every DM like real pulses.
        step = max(grid.spacing_at(peak_dm), 1e-3)
        scale_lo = float(rng.uniform(1.0, 8.0)) * step
        scale_hi = float(rng.uniform(1.0, 8.0)) * step
        span = trials[np.abs(trials - peak_dm) <= 4.0 * max(scale_lo, scale_hi)]
        for dm in span:
            delta = float(dm - peak_dm)
            scale = scale_hi if delta >= 0 else scale_lo
            snr = peak_snr * float(np.exp(-abs(delta) / scale))
            snr += float(rng.normal(0.0, 0.8))  # mimics are noisier than pulses
            if snr < snr_threshold:
                continue
            t = t0 + float(rng.normal(0.0, 0.15))
            if not 0.0 <= t < obs_length_s:
                continue
            spes.append(
                SPE(dm=float(dm), snr=round(snr, 3), time_s=round(t, 6),
                    sample=int(t / sample_time_s), downfact=int(rng.integers(1, 12)))
            )
    return spes


def generate_rfi_spes(
    n_bursts: int,
    obs_length_s: float,
    grid: DMGrid,
    sample_time_s: float = 6.4e-5,
    snr_threshold: float = 5.0,
    rng: np.random.Generator | None = None,
) -> list[SPE]:
    """Broadband RFI bursts: strong at DM≈0, decaying across a wide DM span."""
    rng = rng or np.random.default_rng(0)
    spes: list[SPE] = []
    for _ in range(n_bursts):
        t0 = float(rng.uniform(0.0, obs_length_s))
        spes.extend(
            _broadband_burst(t0, obs_length_s, grid, sample_time_s,
                             snr_threshold, rng)
        )
    return spes


def _broadband_burst(
    t0: float,
    obs_length_s: float,
    grid: DMGrid,
    sample_time_s: float,
    snr_threshold: float,
    rng: np.random.Generator,
) -> list[SPE]:
    """One broadband burst at ``t0`` (the draw sequence of the classic path)."""
    trials = grid.trial_dms()
    spes: list[SPE] = []
    peak = snr_threshold + float(rng.uniform(5.0, 40.0))
    # Decay scale in DM: RFI stays detectable over a wide range.
    scale = float(rng.uniform(30.0, 200.0))
    span = trials[trials <= min(grid.max_dm, scale * 3.0)]
    step = max(1, len(span) // int(rng.integers(30, 120)))
    for dm in span[::step].tolist():
        snr = peak * float(np.exp(-dm / scale)) + float(rng.normal(0.0, 0.4))
        if snr < snr_threshold:
            continue
        t = t0 + float(rng.normal(0.0, 0.01))
        if not 0.0 <= t < obs_length_s:
            continue
        spes.append(
            SPE(dm=dm, snr=round(snr, 3), time_s=round(t, 6),
                sample=int(t / sample_time_s), downfact=int(rng.integers(1, 10)))
        )
    return spes


def generate_storm_rfi_spes(
    storm: RFIStormModel,
    obs_length_s: float,
    grid: DMGrid,
    sample_time_s: float = 6.4e-5,
    snr_threshold: float = 5.0,
    rng: np.random.Generator | None = None,
) -> tuple[list[SPE], list[tuple[float, float]]]:
    """Broadband bursts driven by the storm's Markov chain.

    Returns ``(spes, storm_windows)``.  Draws are strictly time-ordered —
    chain transitions first, then per-interval burst counts and bursts — so
    output is deterministic for a given ``rng`` state.
    """
    rng = rng or np.random.default_rng(0)
    windows = storm.windows(obs_length_s, rng)
    spes: list[SPE] = []
    t = 0.0
    while t < obs_length_s:
        end = min(t + storm.interval_s, obs_length_s)
        rate = storm.quiet_rate_hz
        if storm.in_window((t + end) / 2.0, windows):
            rate *= storm.storm_rate_multiplier
        n_bursts = int(rng.poisson(rate * (end - t)))
        for _ in range(n_bursts):
            t0 = float(rng.uniform(t, end))
            spes.extend(
                _broadband_burst(t0, obs_length_s, grid, sample_time_s,
                                 snr_threshold, rng)
            )
        t = end
    return spes, windows
