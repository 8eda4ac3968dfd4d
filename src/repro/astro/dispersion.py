"""Cold-plasma dispersion physics and trial-DM grids.

A broadband radio pulse traversing the ionized interstellar medium arrives
later at lower frequencies; the delay between frequencies ``f1 < f2`` (MHz)
for dispersion measure ``DM`` (pc cm^-3) is

    dt = K_DM * DM * (f1^-2 - f2^-2)  seconds,  K_DM = 4.148808e3 MHz^2 s.

Single-pulse searches dedisperse at a ladder of *trial* DMs; the ladder's
step size (the paper's ``DMSpacing`` feature) grows from 0.01 at low DM to
2.00 at very high DM, because dispersion smearing tolerance grows with DM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

#: Dispersion constant in MHz^2 pc^-1 cm^3 s (Lorimer & Kramer 2012).
K_DM = 4.148808e3


def dispersion_delay_s(dm: float, f_low_mhz: float, f_high_mhz: float) -> float:
    """Arrival-time delay of ``f_low`` relative to ``f_high`` for this DM."""
    if f_low_mhz <= 0 or f_high_mhz <= 0:
        raise ValueError("frequencies must be positive")
    if dm < 0:
        raise ValueError(f"DM must be non-negative, got {dm}")
    return K_DM * dm * (f_low_mhz**-2 - f_high_mhz**-2)


def _smearing_response(
    width_ms: float, center_freq_mhz: float, bandwidth_mhz: float
) -> Callable[[float], float]:
    """The Cordes & McLaughlin response of one pulse, as ``delta_dm -> factor``.

    The one scalar copy of the formula :func:`smearing_snr_factor`
    documents.  What does not depend on the DM error is validated and
    evaluated once, here, for callers that evaluate one pulsar's response
    many times (its footprint table and the half-width bisection); the
    returned function keeps the formula's float operations in their order.
    """
    if width_ms <= 0:
        raise ValueError(f"width_ms must be positive, got {width_ms}")
    f_ghz = center_freq_mhz / 1000.0
    denom = width_ms * f_ghz**3
    half_sqrt_pi = math.sqrt(math.pi) / 2.0
    erf = math.erf

    def factor(delta_dm: float) -> float:
        zeta = 6.91e-3 * abs(delta_dm) * bandwidth_mhz / denom
        if zeta < 1e-9:
            return 1.0
        return half_sqrt_pi * erf(zeta) / zeta

    return factor


def smearing_snr_factor(
    delta_dm: float, width_ms: float, center_freq_mhz: float, bandwidth_mhz: float
) -> float:
    """SNR degradation for dedispersing at the wrong DM.

    Cordes & McLaughlin (2003): with

        zeta = 6.91e-3 * dDM * BW_MHz / (W_ms * f_GHz^3)

    the recovered SNR fraction is ``sqrt(pi)/2 * erf(zeta)/zeta`` (→ 1 as
    zeta → 0).  This is what makes a single pulse appear as a *cluster* of
    SPEs across neighbouring trial DMs with a peaked SNR-vs-DM profile —
    the structure RAPID's peak search exploits.
    """
    return _smearing_response(width_ms, center_freq_mhz, bandwidth_mhz)(delta_dm)


def smearing_snr_factors(
    delta_dms: np.ndarray,
    width_ms: float,
    center_freq_mhz: float,
    bandwidth_mhz: float,
) -> np.ndarray:
    """Vectorized :func:`smearing_snr_factor` over an array of DM offsets.

    Uses :func:`scipy.special.erf`, which can differ from :func:`math.erf`
    in the last ulp.  The survey generator uses both, each for what it
    always used it for: the SNRs it records come from here, and the
    footprints (which trials a pulse reaches) from the :func:`math.erf` of
    :func:`_smearing_response`, whose threshold comparisons must be the
    half-width bisection's.  Mixing the two would move a footprint or an
    SNR's last bit, and so the generated bytes.
    """
    if width_ms <= 0:
        raise ValueError(f"width_ms must be positive, got {width_ms}")
    from scipy.special import erf

    f_ghz = center_freq_mhz / 1000.0
    zeta = 6.91e-3 * np.abs(np.asarray(delta_dms, dtype=float)) * bandwidth_mhz / (
        width_ms * f_ghz**3
    )
    safe = np.where(zeta < 1e-9, 1.0, zeta)
    out = (math.sqrt(math.pi) / 2.0) * erf(safe) / safe
    return np.where(zeta < 1e-9, 1.0, out)


#: Default trial-DM ladder bands: (dm_start, dm_stop, step).  Matches the
#: paper's statement that DMSpacing runs from 0.01 at low DM to 2.00 at very
#: high DM.  ``DMGrid`` can coarsen these uniformly for fast tests.
DEFAULT_BANDS: tuple[tuple[float, float, float], ...] = (
    (0.0, 30.0, 0.01),
    (30.0, 100.0, 0.05),
    (100.0, 300.0, 0.10),
    (300.0, 1000.0, 0.50),
    (1000.0, 5000.0, 2.00),
)


def dm_spacing_bands() -> tuple[tuple[float, float, float], ...]:
    """The canonical banded spacing table (exposed for tests/docs)."""
    return DEFAULT_BANDS


@dataclass(frozen=True)
class DMGrid:
    """A trial-DM ladder assembled from spacing bands.

    Parameters
    ----------
    max_dm:
        Upper end of the search.
    coarsen:
        Multiply every band step by this factor (≥ 1).  Tests and scaled-down
        benchmarks use coarse grids; the *relative* banded structure — and
        hence the ``DMSpacing`` feature distribution — is preserved.
    """

    max_dm: float = 1000.0
    coarsen: float = 1.0
    bands: tuple[tuple[float, float, float], ...] = DEFAULT_BANDS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.max_dm) and self.max_dm > 0):
            raise ValueError(f"max_dm must be finite and positive, got {self.max_dm}")
        if not (math.isfinite(self.coarsen) and self.coarsen >= 1.0):
            raise ValueError(f"coarsen must be finite and >= 1, got {self.coarsen}")

    @cached_property
    def _ladder(self) -> np.ndarray:
        """The ladder, built on first use and kept, read-only, for this grid."""
        ladder = _build_ladder(self.max_dm, self.coarsen, self.bands)
        ladder.flags.writeable = False
        return ladder

    def __getstate__(self) -> dict:
        # The ladder is derived from the fields; a pickled grid (it rides in
        # D-RAPID task payloads) carries the fields alone.
        state = dict(self.__dict__)
        state.pop("_ladder", None)
        return state

    def trial_dms(self) -> np.ndarray:
        """All trial DM values, ascending, de-duplicated.

        Built once per grid and shared by every call: the array is
        read-only, so no caller can change what the next one sees.
        """
        return self._ladder

    def spacing_at(self, dm: float) -> float:
        """The ladder step at a given DM (the ``DMSpacing`` feature value).

        The step of the last band starting at or below ``dm``; the first
        band's below the ladder — the same rule as :meth:`spacing_of`.
        """
        step = self.bands[0][2]
        for start, _stop, band_step in self.bands:
            if dm < start:
                break
            step = band_step
        return step * self.coarsen

    def spacing_of(self, dms: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`spacing_at` for a whole SPE list at once.

        One ``np.searchsorted`` over the band starts replaces the per-value
        linear band scan; DMs at or beyond the last band stop get the last
        band's step and DMs below the first start the first band's.
        """
        dms = np.asarray(dms, dtype=float)
        starts = np.array([b[0] for b in self.bands])
        steps = np.array([b[2] for b in self.bands]) * self.coarsen
        idx = np.clip(np.searchsorted(starts, dms, side="right") - 1, 0, steps.size - 1)
        return steps[idx]

    def trials_near(self, dm: float, half_width: float) -> np.ndarray:
        """Trial DMs within ±half_width of ``dm`` (a pulse's SPE footprint).

        A read-only slice of the sorted ladder between two ``searchsorted``
        bounds: the elements ``lo <= trial <= hi``.  A NaN bound or a
        negative half-width selects nothing.
        """
        ladder = self._ladder
        lo, hi = dm - half_width, dm + half_width
        if not lo <= hi:
            return ladder[:0]
        return ladder[np.searchsorted(ladder, lo, "left"):np.searchsorted(ladder, hi, "right")]


def _build_ladder(
    max_dm: float, coarsen: float, bands: tuple[tuple[float, float, float], ...]
) -> np.ndarray:
    """Assemble a trial-DM ladder from its bands (see :class:`DMGrid`)."""
    chunks: list[np.ndarray] = []
    for start, stop, step in bands:
        if start >= max_dm:
            break
        stop = min(stop, max_dm)
        chunks.append(np.arange(start, stop, step * coarsen))
    return np.unique(np.concatenate(chunks)) if chunks else np.array([0.0])


def dm_from_distance_kpc(distance_kpc: float, ne_per_cc: float = 0.03) -> float:
    """Crude NE2001-flavoured DM estimate: mean electron density × path.

    Used by the population synthesizer to couple pulsar distances to DMs so
    that ``SNRPeakDM`` behaves as the distance proxy the paper's ALM scheme
    assumes (Section 5.2.2).
    """
    if distance_kpc < 0:
        raise ValueError("distance must be non-negative")
    return ne_per_cc * distance_kpc * 1000.0
