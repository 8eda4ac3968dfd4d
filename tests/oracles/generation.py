"""The survey generator's per-pulse helpers, kept as test oracles.

``repro.astro`` builds each pulse's trial-DM footprint from two helpers:
the half-width of the footprint (a bisection on the Cordes & McLaughlin
smearing response) and the ladder trials inside it.  The live code builds
the ladder once per ``DMGrid`` and the response once per pulsar; the bodies
below are the ones that rebuilt both on every call, copied here with the
response formula and the ladder assembly they called, so the identity laws
(``tests/test_astro_generation_oracles.py``) compare the live helpers with
independent code, not with themselves:

- :func:`detection_half_width_dm` ≡ ``pulses._detection_half_width_dm``
  bit for bit, the 48 bisection steps and the 4096 cap included;
- :func:`smearing_snr_factor` ≡ ``dispersion.smearing_snr_factor``;
- :func:`trial_dms` / :func:`trials_near` ≡ ``DMGrid.trial_dms`` /
  ``DMGrid.trials_near``, element for element.

Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import math

import numpy as np


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
