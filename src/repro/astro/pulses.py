"""Single-pulse event generation: pulses → SPE clusters across trial DMs.

Each emitted pulse is detected not only at the trial DM nearest the source's
true DM but at a *range* of neighbouring trials, with SNR rolling off
according to the dedispersion-smearing response
(:func:`repro.astro.dispersion.smearing_snr_factor`) and arrival time
drifting linearly with the DM error.  The resulting point cloud — a narrow
streak in DM-vs-time with a peaked SNR-vs-DM profile — is exactly the single
pulse structure of the paper's Fig. 1.
"""

from __future__ import annotations

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


def _detection_half_width_dm(
    response: Callable[[float], float], threshold: float, peak_snr: float
) -> float:
    """DM offset beyond which the smeared SNR falls below threshold.

    Solved by bisection on the monotone smearing ``response`` (one pulsar's
    :func:`~repro.astro.dispersion._smearing_response`); gives each pulse
    its DM footprint so we only evaluate trial DMs that can matter.
    """
    if peak_snr <= threshold:
        return 0.0
    lo, hi = 0.0, 1.0
    while peak_snr * response(hi) > threshold and hi < 4096.0:
        hi *= 2.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if peak_snr * response(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return hi


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
    response = None
    for rot in np.flatnonzero(emitted).tolist():
        t_pulse = phase0 + rot * pulsar.period_s
        if t_pulse >= obs_length_s:
            continue
        peak_snr = pulsar.mean_snr * float(np.exp(rng.normal(0.0, pulsar.snr_sigma)))
        if peak_snr <= snr_threshold:
            continue
        if response is None:
            width_ms = effective_width_ms(
                pulsar.width_ms, pulsar.dm, center_freq_mhz, bandwidth_mhz, n_channels
            )
            response = _smearing_response(width_ms, center_freq_mhz, bandwidth_mhz)
            downfact = max(1, int(width_ms / (sample_time_s * 1e3)))
        half_width = _detection_half_width_dm(response, snr_threshold, peak_snr)
        trials = grid.trials_near(pulsar.dm, half_width)
        if trials.size == 0:
            continue
        # Arrival-time drift: dedispersing at DM' shifts the apparent arrival
        # by roughly half the residual intra-band delay.  The whole trial-DM
        # footprint is evaluated in one vectorized pass; the noise draw uses
        # one size=n call, which consumes the generator stream exactly like
        # the seed's per-trial scalar draws did.
        deltas = trials - pulsar.dm
        snr_arr = peak_snr * smearing_snr_factors(
            deltas, width_ms, center_freq_mhz, bandwidth_mhz
        )
        snr_arr += rng.normal(0.0, 0.25, size=trials.size)  # radiometer noise
        drift = 0.5 * (K_DM * np.abs(deltas) * (f_low**-2 - f_high**-2))
        t_arr = t_pulse + np.where(deltas > 0, drift, -drift)
        keep = np.flatnonzero(
            (snr_arr >= snr_threshold) & (t_arr >= 0.0) & (t_arr < obs_length_s)
        )
        first = start_index + len(spes)
        for dm, snr, t in zip(trials[keep].tolist(), snr_arr[keep].tolist(),
                              t_arr[keep].tolist()):
            spes.append(SPE(dm=dm, snr=round(snr, 3), time_s=round(t, 6),
                            sample=int(t / sample_time_s), downfact=downfact))
        if keep.size >= 2:
            truths.append(
                PulseTruth(
                    pulsar_name=pulsar.name,
                    is_rrat=pulsar.is_rrat,
                    time_s=float(t_pulse),
                    peak_snr=float(peak_snr),
                    dm=pulsar.dm,
                    spe_indices=tuple(range(first, first + keep.size)),
                )
            )
    return spes, truths
