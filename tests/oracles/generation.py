"""The survey generator's per-pulse helpers, kept as test oracles.

A pulse's trial-DM footprint is defined by two helpers: the half-width of
the footprint (a bisection on the Cordes & McLaughlin smearing response)
and the ladder trials inside it.  The live generator reads footprints off a
per-pulsar table of the response at each trial (``pulses._FootprintTable``)
and keeps the bisection, on a response built once per pulsar, only as that
table's fallback; it builds the ladder once per ``DMGrid``.  The bodies
below are the ones that rebuilt the ladder and the response on every call,
copied here with the response formula and the ladder assembly they called,
so the identity laws (``tests/test_astro_generation_oracles.py``) compare
the live helpers with independent code, not with themselves:

- :func:`detection_half_width_dm` ≡ ``pulses._detection_half_width_dm``
  bit for bit, the 48 bisection steps and the 4096 cap included;
- :func:`detection_half_width_dm` then :func:`trials_near` ≡
  ``pulses._FootprintTable.trials``, element for element, for any
  sequence of peaks;
- :func:`smearing_snr_factor` ≡ ``dispersion.smearing_snr_factor``;
- :func:`trial_dms` / :func:`trials_near` ≡ ``DMGrid.trial_dms`` /
  ``DMGrid.trials_near``, element for element;
- :func:`_reference_generate_pulsar_spes` (the per-pulse loop: bisect,
  evaluate, round and record one pulse at a time) ≡
  ``pulses.generate_pulsar_spes``, every record, every truth and the
  generator's state afterwards.

Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.astro.dispersion import K_DM, smearing_snr_factors
from repro.astro.pulses import PulseTruth, effective_width_ms
from repro.astro.spe import SPE


def smearing_snr_factor(
    delta_dm: float, width_ms: float, center_freq_mhz: float, bandwidth_mhz: float
) -> float:
    """Recovered SNR fraction at a DM error (Cordes & McLaughlin 2003)."""
    if width_ms <= 0:
        raise ValueError(f"width_ms must be positive, got {width_ms}")
    f_ghz = center_freq_mhz / 1000.0
    zeta = 6.91e-3 * abs(delta_dm) * bandwidth_mhz / (width_ms * f_ghz**3)
    if zeta < 1e-9:
        return 1.0
    return (math.sqrt(math.pi) / 2.0) * math.erf(zeta) / zeta


def detection_half_width_dm(
    width_ms: float, center_freq_mhz: float, bandwidth_mhz: float, threshold: float, peak_snr: float
) -> float:
    """DM offset beyond which the smeared SNR falls below threshold."""
    if peak_snr <= threshold:
        return 0.0
    lo, hi = 0.0, 1.0
    resp = lambda d: peak_snr * smearing_snr_factor(  # noqa: E731
        d, width_ms, center_freq_mhz, bandwidth_mhz
    )
    while resp(hi) > threshold and hi < 4096.0:
        hi *= 2.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if resp(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return hi


def trial_dms(
    max_dm: float, coarsen: float, bands: tuple[tuple[float, float, float], ...]
) -> np.ndarray:
    """All trial DM values, ascending, de-duplicated (rebuilt per call)."""
    chunks: list[np.ndarray] = []
    for start, stop, step in bands:
        if start >= max_dm:
            break
        stop = min(stop, max_dm)
        chunks.append(np.arange(start, stop, step * coarsen))
    grid = np.unique(np.concatenate(chunks)) if chunks else np.array([0.0])
    return grid


def trials_near(grid, dm: float, half_width: float) -> np.ndarray:
    """Trial DMs of ``grid`` (a ``DMGrid``) within ±half_width of ``dm``."""
    ladder = trial_dms(grid.max_dm, grid.coarsen, grid.bands)
    lo, hi = dm - half_width, dm + half_width
    return ladder[(ladder >= lo) & (ladder <= hi)]


def _reference_generate_pulsar_spes(
    pulsar,
    obs_length_s: float,
    grid,
    center_freq_mhz: float,
    bandwidth_mhz: float,
    sample_time_s: float = 6.4e-5,
    snr_threshold: float = 5.0,
    rng: np.random.Generator | None = None,
    start_index: int = 0,
    n_channels: int = 1024,
) -> tuple[list[SPE], list[PulseTruth]]:
    """All SPEs a pulsar produces in one observation, one pulse at a time."""
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
    emitted = rng.random(n_rotations) < pulsar.pulse_fraction
    phase0 = rng.uniform(0.0, pulsar.period_s)
    width_ms = None
    for rot in np.flatnonzero(emitted).tolist():
        t_pulse = phase0 + rot * pulsar.period_s
        if t_pulse >= obs_length_s:
            continue
        peak_snr = pulsar.mean_snr * float(np.exp(rng.normal(0.0, pulsar.snr_sigma)))
        if peak_snr <= snr_threshold:
            continue
        if width_ms is None:
            width_ms = effective_width_ms(
                pulsar.width_ms, pulsar.dm, center_freq_mhz, bandwidth_mhz, n_channels
            )
            downfact = max(1, int(width_ms / (sample_time_s * 1e3)))
        half_width = detection_half_width_dm(
            width_ms, center_freq_mhz, bandwidth_mhz, snr_threshold, peak_snr
        )
        trials = trials_near(grid, pulsar.dm, half_width)
        if trials.size == 0:
            continue
        deltas = trials - pulsar.dm
        snr_arr = peak_snr * smearing_snr_factors(
            deltas, width_ms, center_freq_mhz, bandwidth_mhz
        )
        snr_arr += rng.normal(0.0, 0.25, size=trials.size)
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
