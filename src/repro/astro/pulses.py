"""Single-pulse event generation: pulses → SPE clusters across trial DMs.

Each emitted pulse is detected not only at the trial DM nearest the source's
true DM but at a *range* of neighbouring trials, with SNR rolling off
according to the dedispersion-smearing response
(:func:`repro.astro.dispersion.smearing_snr_factor`) and arrival time
drifting linearly with the DM error.  The resulting point cloud — a narrow
streak in DM-vs-time with a peaked SNR-vs-DM profile — is exactly the single
pulse structure of the paper's Fig. 1.

A pulse's footprint (the trials it is detected at) is read off a table of
its pulsar's response at each ladder trial, not solved per pulse; the
half-width bisection settles only the pulses whose footprint edge lies
within rounding of the threshold.  The per-pulse loop makes only the random
draws, and one array pass per pulsar computes the SNRs, drifts and arrival
times of all its pulses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.astro.dispersion import (
    K_DM,
    DMGrid,
    _smearing_response,
    smearing_snr_factors,
)
from repro.astro.population import Pulsar
from repro.astro.spe import SPE


def effective_width_ms(
    intrinsic_width_ms: float,
    dm: float,
    center_freq_mhz: float,
    bandwidth_mhz: float,
    n_channels: int = 1024,
    scatter_coeff_ms: float = 0.01,
) -> float:
    """Observed pulse width after propagation/instrumental broadening.

    Quadrature sum of the intrinsic width, intra-channel dispersion smearing
    (8.3e6 · DM · Δν_chan / ν³ ms) and a scattering tail scaling as
    DM^2.2 · ν^-4.4 (Bhat et al. 2004, simplified).  Broadening grows fast
    with DM at low frequencies, which is what gives high-DM pulses a wide
    trial-DM footprint (and is why 350 MHz surveys lose sensitivity to
    distant pulsars).
    """
    if intrinsic_width_ms <= 0:
        raise ValueError("intrinsic_width_ms must be positive")
    chan_mhz = bandwidth_mhz / max(n_channels, 1)
    smear_ms = 8.3e6 * dm * chan_mhz / center_freq_mhz**3
    scatter_ms = scatter_coeff_ms * (dm / 100.0) ** 2.2 * (1400.0 / center_freq_mhz) ** 4.4
    return float(np.sqrt(intrinsic_width_ms**2 + smear_ms**2 + scatter_ms**2))


@dataclass(frozen=True)
class PulseTruth:
    """Ground truth for one emitted pulse (used to label clusters)."""

    pulsar_name: str
    is_rrat: bool
    time_s: float
    peak_snr: float
    dm: float
    spe_indices: tuple[int, ...]


#: The bisection's search cap: no half-width exceeds it.
_HALF_WIDTH_CAP = 4096.0
#: A table footprint stops short of this DM offset; a run that gets there is
#: settled by the bisection, which caps at :data:`_HALF_WIDTH_CAP`.
_TABLE_REACH = _HALF_WIDTH_CAP - 1.0
#: Relative distance from threshold inside which a boundary trial is
#: settled by the bisection.  The bisection's last interval (at most
#: 2**-47 of the half-width) and the rounding of ``dm ± half_width`` move
#: ``peak · r`` by under 1e-12 relative at the widths
#: :func:`effective_width_ms` gives, so outside this band the table's
#: footprint is the bisection's, trial for trial.
_FOOTPRINT_BAND = 1e-9


def _detection_half_width_dm(
    response: Callable[[float], float], threshold: float, peak_snr: float
) -> float:
    """DM offset beyond which the smeared SNR falls below threshold.

    Solved by bisection on the monotone smearing ``response`` (one pulsar's
    :func:`~repro.astro.dispersion._smearing_response`).  The generator
    reads footprints off a :class:`_FootprintTable` and calls this only for
    the pulses the table cannot settle; the footprint is
    ``grid.trials_near(dm, half_width)``.
    """
    if peak_snr <= threshold:
        return 0.0
    lo, hi = 0.0, 1.0
    while peak_snr * response(hi) > threshold and hi < _HALF_WIDTH_CAP:
        hi *= 2.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if peak_snr * response(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return hi


class _FootprintTable:
    """One pulsar's trial-DM footprints, read off a table of its response.

    The response is evaluated once per ladder trial, outward from the
    pulsar's DM on each side, and only as far as the brightest pulse so far
    needs.  A pulse of peak ``P`` is detected at the leading run of trials
    on each side where ``P · r > threshold``; the response falls
    monotonically with the DM offset, so that run is the set
    :func:`_detection_half_width_dm` and ``DMGrid.trials_near`` select.
    Where a boundary trial's ``P · r`` lies within :data:`_FOOTPRINT_BAND`
    of the threshold, or the run reaches :data:`_TABLE_REACH`, the pulse
    takes the bisection path itself.
    """

    def __init__(
        self, grid: DMGrid, dm: float, response: Callable[[float], float], threshold: float
    ) -> None:
        self._grid = grid
        self._ladder = ladder = grid.trial_dms()
        self._dm = dm
        self._response = response
        self._threshold = threshold
        self._center = c = int(np.searchsorted(ladder, dm, "left"))
        # Per side (0: trials at or above ``dm``, 1: below): the response at
        # each trial outward, negated so the list ascends for ``bisect``;
        # how many trials lie within reach; how many the side has at all.
        self._neg: tuple[list[float], list[float]] = ([], [])
        self._reach = (
            int(np.searchsorted(ladder, dm + _TABLE_REACH, "left")) - c,
            c - int(np.searchsorted(ladder, dm - _TABLE_REACH, "right")),
        )
        self._size = (ladder.size - c, c)

    def trials(self, peak_snr: float) -> np.ndarray:
        """The ladder trials a pulse of this peak is detected at."""
        if peak_snr > self._threshold > 0.0:
            above, below = self._run(0, peak_snr), self._run(1, peak_snr)
            if above is not None and below is not None:
                return self._ladder[self._center - below:self._center + above]
        half_width = _detection_half_width_dm(self._response, self._threshold, peak_snr)
        return self._grid.trials_near(self._dm, half_width)

    def _run(self, side: int, peak_snr: float) -> int | None:
        """Length of the leading run above threshold, or None if unsettled."""
        neg, threshold = self._neg[side], self._threshold
        cut = -threshold / peak_snr
        while (not neg or neg[-1] < cut) and self._grow(side):
            pass
        n = bisect_left(neg, cut)
        if n == len(neg) and n < self._size[side]:
            return None  # the run reaches the bisection's cap
        band = _FOOTPRINT_BAND * threshold
        if n and not -peak_snr * neg[n - 1] - threshold > band:
            return None
        if n < len(neg) and not threshold + peak_snr * neg[n] > band:
            return None
        return n

    def _grow(self, side: int) -> bool:
        """Extend one side's table (doubling it); False once out of reach."""
        neg = self._neg[side]
        have, reach = len(neg), self._reach[side]
        if have >= reach:
            return False
        n = min(max(8, have), reach - have)
        c = self._center
        trials = (
            self._ladder[c + have:c + have + n] if side == 0
            else self._ladder[c - have - n:c - have][::-1]
        )
        response = self._response
        neg.extend(-response(delta) for delta in (trials - self._dm).tolist())
        return True


def generate_pulsar_spes(
    pulsar: Pulsar,
    obs_length_s: float,
    grid: DMGrid,
    center_freq_mhz: float,
    bandwidth_mhz: float,
    sample_time_s: float = 6.4e-5,
    snr_threshold: float = 5.0,
    rng: np.random.Generator | None = None,
    start_index: int = 0,
    n_channels: int = 1024,
) -> tuple[list[SPE], list[PulseTruth]]:
    """Generate all SPEs a pulsar produces in one observation.

    Returns the SPE list and per-pulse ground truth records.  ``start_index``
    offsets the SPE indices recorded in the truth (so several sources can
    share one observation's SPE list).

    The loop over pulses makes only the random draws — each pulse's peak,
    then one radiometer-noise value per trial of its footprint, which the
    pulsar's :class:`_FootprintTable` supplies — so the generator stream is
    consumed pulse by pulse.  Every pulse's SNRs, drifts and arrival times
    are then computed in one pass over the pulsar's concatenated footprints.
    """
    rng = rng or np.random.default_rng(0)
    if obs_length_s <= 0:
        raise ValueError(f"obs_length_s must be positive, got {obs_length_s}")
    spes: list[SPE] = []
    truths: list[PulseTruth] = []

    f_low = center_freq_mhz - bandwidth_mhz / 2.0
    f_high = center_freq_mhz + bandwidth_mhz / 2.0

    n_rotations = int(obs_length_s / pulsar.period_s)
    if n_rotations < 1:
        return spes, truths
    # Which rotations emit a detectable pulse.
    emitted = rng.random(n_rotations) < pulsar.pulse_fraction
    phase0 = rng.uniform(0.0, pulsar.period_s)

    # What depends on the pulsar alone is computed once, at its first pulse
    # above threshold: a pulsar whose pulses all stay below never evaluates
    # its width.
    table = None
    times: list[float] = []
    peaks: list[float] = []
    footprints: list[np.ndarray] = []
    noise: list[np.ndarray] = []
    for rot in np.flatnonzero(emitted).tolist():
        t_pulse = phase0 + rot * pulsar.period_s
        if t_pulse >= obs_length_s:
            continue
        peak_snr = pulsar.mean_snr * float(np.exp(rng.normal(0.0, pulsar.snr_sigma)))
        if peak_snr <= snr_threshold:
            continue
        if table is None:
            width_ms = effective_width_ms(
                pulsar.width_ms, pulsar.dm, center_freq_mhz, bandwidth_mhz, n_channels
            )
            table = _FootprintTable(
                grid, pulsar.dm, _smearing_response(width_ms, center_freq_mhz, bandwidth_mhz),
                snr_threshold,
            )
            downfact = max(1, int(width_ms / (sample_time_s * 1e3)))
        trials = table.trials(peak_snr)
        if trials.size == 0:
            continue
        times.append(t_pulse)
        peaks.append(peak_snr)
        footprints.append(trials)
        noise.append(rng.normal(0.0, 0.25, size=trials.size))  # radiometer noise
    if not footprints:
        return spes, truths

    # Arrival-time drift: dedispersing at DM' shifts the apparent arrival by
    # roughly half the residual intra-band delay.  Element for element these
    # are the float operations of one pulse at a time.
    sizes = [f.size for f in footprints]
    trials = np.concatenate(footprints)
    deltas = trials - pulsar.dm
    snr_arr = np.repeat(peaks, sizes) * smearing_snr_factors(
        deltas, width_ms, center_freq_mhz, bandwidth_mhz
    )
    snr_arr += np.concatenate(noise)
    drift = 0.5 * (K_DM * np.abs(deltas) * (f_low**-2 - f_high**-2))
    t_arr = np.repeat(times, sizes) + np.where(deltas > 0, drift, -drift)
    keep = np.flatnonzero(
        (snr_arr >= snr_threshold) & (t_arr >= 0.0) & (t_arr < obs_length_s)
    )
    t_kept = t_arr[keep]
    spes = [
        SPE(dm, round(snr, 3), round(t, 6), sample, downfact)
        for dm, snr, t, sample in zip(
            trials[keep].tolist(), snr_arr[keep].tolist(), t_kept.tolist(),
            (t_kept / sample_time_s).astype(np.int64).tolist(),
        )
    ]
    kept = np.bincount(
        np.repeat(np.arange(len(sizes)), sizes)[keep], minlength=len(sizes)
    ).tolist()
    first = start_index
    for t_pulse, peak_snr, n in zip(times, peaks, kept):
        if n >= 2:
            truths.append(
                PulseTruth(
                    pulsar_name=pulsar.name,
                    is_rrat=pulsar.is_rrat,
                    time_s=float(t_pulse),
                    peak_snr=float(peak_snr),
                    dm=pulsar.dm,
                    spe_indices=tuple(range(first, first + n)),
                )
            )
        first += n
    return spes, truths
