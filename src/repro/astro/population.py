"""Pulsar and RRAT population synthesis.

Generates a catalog of synthetic sources whose distributions mirror the
properties the paper's classification features depend on:

- **DM** couples to distance (``SNRPeakDM`` is the paper's distance proxy,
  Section 5.2.2), spanning the near/mid/far ALM bins [0,100)/[100,175)/[175,∞);
- **brightness** (mean single-pulse SNR) spans the weak/strong ALM split at
  AvgSNR = 8;
- **RRATs** emit sporadically (McLaughlin et al. 2006) and form the rare
  class of ALM scheme 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.astro.dispersion import dm_from_distance_kpc


@dataclass(frozen=True)
class Pulsar:
    """A synthetic single-pulse-emitting source."""

    name: str
    period_s: float
    dm: float
    width_ms: float
    #: Mean SNR of a single pulse at the true DM (log-normal across pulses).
    mean_snr: float
    #: Pulse-to-pulse SNR modulation (log-normal sigma).
    snr_sigma: float
    #: Fraction of rotations that produce a detectable pulse.  ~1 for bright
    #: pulsars, << 1 for RRATs.
    pulse_fraction: float
    is_rrat: bool
    sky_position: str

    def __post_init__(self) -> None:
        for name in ("period_s", "dm", "width_ms", "mean_snr", "snr_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}: {self.name}")
        if self.period_s <= 0:
            raise ValueError(f"period_s must be positive, got {self.period_s}: {self.name}")
        if not 0.0 < self.pulse_fraction <= 1.0:
            raise ValueError(f"pulse_fraction must be in (0,1]: {self.name}")
        if self.dm < 0:
            raise ValueError(f"dm must be non-negative, got {self.dm}: {self.name}")
        if self.width_ms <= 0:
            raise ValueError(f"width_ms must be positive, got {self.width_ms}: {self.name}")
        if self.snr_sigma < 0:
            raise ValueError(f"snr_sigma must be non-negative, got {self.snr_sigma}: {self.name}")


def _sky_position(rng: np.random.Generator) -> str:
    """A Jname-style position string, e.g. 'J1853+0101'."""
    ra_h = rng.integers(0, 24)
    ra_m = rng.integers(0, 60)
    dec_sign = "+" if rng.random() < 0.5 else "-"
    dec_d = rng.integers(0, 90)
    dec_m = rng.integers(0, 60)
    return f"J{ra_h:02d}{ra_m:02d}{dec_sign}{dec_d:02d}{dec_m:02d}"


def synthesize_population(
    n_pulsars: int,
    rrat_fraction: float = 0.15,
    max_dm: float = 600.0,
    seed: int = 0,
) -> list[Pulsar]:
    """Draw a synthetic *detected* population.

    Distributions (simplified population synthesis, conditioned on
    detection): periods log-normal around 0.5 s (RRATs around 2 s); DMs
    drawn from a mixture spanning the ALM near/mid/far bins; widths
    log-normal around 5 ms (RRATs ~30 ms); apparent brightness heavy-tailed
    across the ALM weak/strong boundary with mild distance attenuation
    (surveys only see sources above threshold, so detected brightness is
    only weakly coupled to distance).  RRAT count is deterministic:
    ``round(n_pulsars * rrat_fraction)``.
    """
    if n_pulsars < 1:
        raise ValueError(f"n_pulsars must be >= 1, got {n_pulsars}")
    if not 0.0 <= rrat_fraction <= 1.0:
        raise ValueError(f"rrat_fraction must be in [0,1], got {rrat_fraction}")
    rng = np.random.default_rng(seed)
    # Deterministic RRAT count: benchmarks need the rare class present.
    n_rrats = int(round(n_pulsars * rrat_fraction))
    rrat_flags = np.zeros(n_pulsars, dtype=bool)
    rrat_flags[:n_rrats] = True
    rng.shuffle(rrat_flags)
    out: list[Pulsar] = []
    for i in range(n_pulsars):
        is_rrat = bool(rrat_flags[i])
        if is_rrat:
            # RRATs rotate slowly (McLaughlin et al. 2006: periods 0.4–7 s).
            period = float(np.exp(rng.normal(math.log(2.0), 0.5)))
        else:
            period = float(np.exp(rng.normal(math.log(0.5), 0.8)))
        period = min(max(period, 0.002), 10.0)
        # DM of the *detected* population: a mixture spanning the paper's
        # ALM distance bins (near [0,100) / mid [100,175) / far [175,∞)) in
        # the rough proportions its thresholds imply.
        u = rng.random()
        if u < 0.55:
            dm = float(rng.uniform(5.0, 100.0))
        elif u < 0.85:
            dm = float(rng.uniform(100.0, 175.0))
        else:
            dm = float(rng.uniform(175.0, max(max_dm, 180.0)))
        dm = min(max(dm, 2.0), max_dm)
        distance_kpc = dm / 30.0  # consistent with dm_from_distance_kpc
        assert abs(dm_from_distance_kpc(distance_kpc) - dm) < 1e-6
        if is_rrat:
            # RRAT single pulses are broad (tens of ms) — part of what makes
            # them visually distinctive in candidate plots.
            width = float(np.exp(rng.normal(math.log(30.0), 0.3)))
        else:
            width = float(np.exp(rng.normal(math.log(5.0), 0.7)))  # ms
        width = min(max(width, 0.5), 50.0)
        # Brightness of the *detected* population: surveys only see sources
        # above threshold, so apparent brightness is only weakly coupled to
        # distance (far detections are intrinsically luminous).  A heavy
        # tail spans the ALM weak/strong boundary at AvgSNR = 8.
        base = 6.0 + float(rng.exponential(6.0))
        attenuation = 1.0 / (1.0 + 0.06 * distance_kpc)
        mean_snr = base * attenuation + 1.0
        snr_sigma = float(rng.uniform(0.15, 0.5))
        if is_rrat:
            pulse_fraction = float(rng.uniform(0.03, 0.15))
            mean_snr = mean_snr * 2.0 + 14.0  # RRAT detections are individually bright
        else:
            pulse_fraction = float(rng.uniform(0.4, 1.0))
        prefix = "RRAT" if is_rrat else "PSR"
        out.append(
            Pulsar(
                name=f"{prefix}-{i:04d}",
                period_s=period,
                dm=float(dm),
                width_ms=width,
                mean_snr=mean_snr,
                snr_sigma=snr_sigma,
                pulse_fraction=pulse_fraction,
                is_rrat=is_rrat,
                sky_position=_sky_position(rng),
            )
        )
    return out


def b1853_like(seed: int = 1853) -> Pulsar:
    """A bright, moderate-DM pulsar resembling B1853+01 (Fig. 1's subject).

    B1853+01 has DM ≈ 96.7 pc cm^-3 and period ≈ 0.267 s; an observation of
    a few minutes yields hundreds of detectable single pulses, which is what
    lets D-RAPID find ~188 single pulses where DPG-RAPID found one.
    """
    return Pulsar(
        name="B1853+01",
        period_s=0.267,
        dm=96.7,
        width_ms=6.0,
        mean_snr=14.0,
        snr_sigma=0.45,
        pulse_fraction=0.85,
        is_rrat=False,
        sky_position="J1856+0113",
    )
