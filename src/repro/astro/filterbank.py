"""Filterbank synthesis, dedispersion, and single pulse event detection.

Section 3 of the paper describes the three phases *upstream* of its "raw
data": signal collection, dedispersion, and single pulse searching (PRESTO's
``single_pulse_search.py``).  This module implements that front end so the
whole chain — voltages to classified candidates — exists in the repository:

- :func:`synthesize_filterbank` — a (channels × samples) dynamic spectrum
  with radiometer noise and dispersed pulses swept across the band;
- :func:`dedisperse_all` — the whole trial-DM grid at once: every row of
  the plan of :func:`repro.astro.kernels.plan_dedispersion`, the one
  dedispersion engine (one DM is a ladder of one, and its row is exact);
- :func:`single_pulse_search` — matched filtering of each dedispersed time
  series with boxcars of several widths and thresholding, emitting the SPE
  records the rest of the pipeline consumes.  It streams the grid a chunk
  of trial-DM rows at a time and never holds the whole dedispersed block.

The heavy lifting lives in :mod:`repro.astro.kernels`; the seed's naive
loops are kept in ``tests/oracles/frontend.py`` for equivalence tests and
the front-end kernel benchmark.

The output of :func:`single_pulse_search` over a trial-DM grid is exactly
the kind of SPE list :mod:`repro.astro.pulses` synthesizes directly; a test
asserts the two agree on where the pulse lives.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.astro.dispersion import K_DM
from repro.astro.kernels import plan_dedispersion, single_pulse_block_search
from repro.astro.spe import SPE, spes_from_search
from repro.execution import KernelConfig
from repro.obs.events import KERNEL_SELECTED

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.session import ObsSession


@dataclass(frozen=True)
class Filterbank:
    """A dynamic spectrum: power per (channel, sample)."""

    data: np.ndarray  # (n_channels, n_samples), float32
    f_low_mhz: float
    f_high_mhz: float
    sample_time_s: float

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValueError("filterbank data must be 2-D (channels × samples)")
        if self.f_low_mhz >= self.f_high_mhz:
            raise ValueError("f_low must be below f_high")
        if self.sample_time_s <= 0:
            raise ValueError("sample_time_s must be positive")
        finite = np.isfinite(self.data)
        if not finite.all():
            # One NaN/inf reaches every dedispersed row and poisons the
            # cumulative sums: the search would return nothing, silently.
            bad = np.argwhere(~finite)
            raise ValueError(
                f"filterbank data has {len(bad)} non-finite sample(s); "
                f"first at (channel {bad[0][0]}, sample {bad[0][1]})"
            )

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def channel_freqs_mhz(self) -> np.ndarray:
        """Centre frequency of each channel, ascending."""
        edges = np.linspace(self.f_low_mhz, self.f_high_mhz, self.n_channels + 1)
        return 0.5 * (edges[:-1] + edges[1:])

    @property
    def duration_s(self) -> float:
        return self.n_samples * self.sample_time_s


@dataclass(frozen=True)
class InjectedPulse:
    """Ground truth for a pulse injected into a filterbank."""

    time_s: float
    dm: float
    width_ms: float
    amplitude: float


def synthesize_filterbank(
    duration_s: float,
    n_channels: int = 64,
    f_low_mhz: float = 300.0,
    f_high_mhz: float = 400.0,
    sample_time_s: float = 1e-3,
    pulses: list[InjectedPulse] | None = None,
    noise_sigma: float = 1.0,
    seed: int = 0,
) -> Filterbank:
    """Gaussian-noise dynamic spectrum with dispersed pulses swept in.

    Each pulse arrives at its nominal time at the top of the band and is
    delayed per channel by the cold-plasma law; its profile is a Gaussian of
    the given width in every channel.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = np.random.default_rng(seed)
    n_samples = int(round(duration_s / sample_time_s))
    data = rng.normal(0.0, noise_sigma, size=(n_channels, n_samples)).astype(np.float32)

    edges = np.linspace(f_low_mhz, f_high_mhz, n_channels + 1)
    freqs = 0.5 * (edges[:-1] + edges[1:])
    t = np.arange(n_samples) * sample_time_s
    for pulse in pulses or []:
        width_s = pulse.width_ms / 1e3
        for ch, f in enumerate(freqs):
            delay = K_DM * pulse.dm * (f**-2 - f_high_mhz**-2)
            center = pulse.time_s + delay
            if not -4 * width_s <= center <= duration_s + 4 * width_s:
                continue
            lo = max(0, int((center - 5 * width_s) / sample_time_s))
            hi = min(n_samples, int((center + 5 * width_s) / sample_time_s) + 1)
            if hi <= lo:
                continue
            seg = t[lo:hi]
            data[ch, lo:hi] += pulse.amplitude * np.exp(
                -0.5 * ((seg - center) / max(width_s, sample_time_s / 2)) ** 2
            )
    return Filterbank(data=data, f_low_mhz=f_low_mhz, f_high_mhz=f_high_mhz,
                      sample_time_s=sample_time_s)


def _check_kernel(kernel) -> None:
    """One engine dedisperses, so ``kernel`` selects nothing: ``None`` or a
    :class:`KernelConfig` is accepted, and anything else is refused rather
    than run as the default."""
    if kernel is not None and not isinstance(kernel, KernelConfig):
        raise TypeError(f"kernel must be a KernelConfig or None, got {kernel!r}")


def dedisperse_all(
    fb: Filterbank,
    trial_dms: np.ndarray,
    out_dtype: np.dtype | type = np.float64,
    kernel: KernelConfig | None = None,
) -> np.ndarray:
    """The full (n_dms × n_samples) dedispersed block in one call.

    Every row of :func:`repro.astro.kernels.plan_dedispersion`'s plan: partial
    sums are reused across neighbouring trial DMs, every channel lands
    within 2 samples of its exact shift (the :mod:`repro.astro.kernels`
    tolerance law at :data:`~repro.astro.kernels.TOL_SAMPLES` = 1), and a
    trial DM that shares its group with no neighbour — every DM of a coarse
    ladder, or of a ladder of one — gets the exact row.  Arrival times are
    referenced to the top of the band, matching
    :func:`synthesize_filterbank`.  ``kernel`` is checked (see
    :func:`single_pulse_search`) and selects nothing.
    """
    _check_kernel(kernel)
    return plan_dedispersion(
        fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s,
        trial_dms, out_dtype,
    ).block()


def single_pulse_search(
    fb: Filterbank,
    trial_dms: np.ndarray,
    snr_threshold: float = 5.0,
    boxcar_widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    dtype: np.dtype | type = np.float32,
    kernel: KernelConfig | None = None,
    obs: "ObsSession | None" = None,
) -> list[SPE]:
    """PRESTO-style single pulse search over the whole trial-DM grid.

    Streamed front end (:mod:`repro.astro.kernels`): one dedispersion plan
    for the whole ladder, then, a chunk of trial-DM rows at a time, the
    rows dedispersed into one reused buffer and boxcar-searched — an O(n)
    filter per series with median/MAD noise estimated once per series, and
    a vectorized threshold + local-maxima pass.  Memory is one chunk
    (≈ 4 MiB, ``DedispersionPlan.chunk_rows``) plus the filterbank, not the
    (n_dms × n_samples) block; the detections are those of
    ``single_pulse_block_search(dedisperse_all(...))``, bit for bit, because
    every row is dedispersed and searched on its own.

    Sample convention: boxcar windows are **left-aligned** — each emitted
    SPE's ``sample`` (and ``time_s = sample × t_samp``) is the *first*
    sample of the best-matching width-``downfact`` window, which therefore
    covers ``[time_s, time_s + downfact × t_samp)``.  The seed centred
    windows with ``np.convolve(..., mode="same")``, which put even-width
    boxcars half a sample off; that implementation is the oracle in
    ``tests/oracles/frontend.py``.

    ``dtype`` controls the accumulation precision of the search path.  The
    float32 default halves memory traffic (PRESTO dedisperses in float32
    too) and perturbs SNRs only at the 1e-5 level; pass ``np.float64`` for
    bit-level agreement with the float64 kernels.

    ``kernel`` is ``None`` or a :class:`repro.execution.KernelConfig`, which
    has nothing to select; anything else is a ``TypeError``.
    ``obs`` records the plan as one ``kernel_selected`` event — its
    ``groups`` and its ``solo_rows`` (groups of one, summed from the
    channels at their exact shifts; on a coarse ladder, every row) — and,
    per chunk, one ``kernel.dedisperse`` and one ``kernel.boxcar`` span,
    each carrying the chunk's ``rows`` and ``bytes``.
    """
    _check_kernel(kernel)
    if not (np.isfinite(snr_threshold) and snr_threshold > 0):
        raise ValueError(f"snr_threshold must be finite and positive, got {snr_threshold!r}")
    trial_dms = np.asarray(trial_dms, dtype=float)
    plan = plan_dedispersion(
        fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s,
        trial_dms, dtype,
    )
    if obs is not None:
        obs.emit(KERNEL_SELECTED, groups=plan.groups, solo_rows=plan.solo_rows)
    span = obs.tracer.span if obs is not None else (lambda *a, **k_: nullcontext())
    n_dms, step = plan.n_rows, plan.chunk_rows
    buf = np.empty((min(step, n_dms), fb.n_samples), dtype=plan.dtype)
    found = []
    # An empty ladder still searches one empty chunk, which checks the
    # search settings and gives the detections their dtypes.
    for lo in range(0, max(n_dms, 1), step):
        block = buf[: min(step, n_dms - lo)]
        size = {"rows": len(block), "bytes": block.nbytes}
        with span("kernel.dedisperse", **size):
            plan.fill(lo, block)
        with span("kernel.boxcar", **size):
            rows, samples, snrs, widths = single_pulse_block_search(
                block, snr_threshold, boxcar_widths
            )
        found.append((rows + lo, samples, snrs, widths))
    rows, samples, snrs, widths = (np.concatenate(col) for col in zip(*found))
    return spes_from_search(trial_dms, fb.sample_time_s, rows, samples, snrs, widths)
