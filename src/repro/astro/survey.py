"""Survey configurations and observation generation.

Two presets mirror the paper's data sources:

- :data:`GBT350DRIFT` — the Green Bank Telescope 350 MHz drift-scan survey
  (Boyles et al. 2013): low frequency, 100 MHz bandwidth, single beam.
- :data:`PALFA` — the Arecibo L-band Feed Array survey (Cordes et al. 2006):
  1.4 GHz, 300 MHz bandwidth, seven beams.

:func:`generate_observation` composes the population, pulse, noise and RFI
generators into one labeled observation: an SPE list, clusters found by the
customized DBSCAN, and each cluster's ground-truth class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.astro.clustering import Cluster, SinglePulseDBSCAN
from repro.astro.dispersion import DMGrid
from repro.astro.population import Pulsar
from repro.astro.pulses import PulseTruth, generate_pulsar_spes
from repro.astro.rfi import (
    RFIStormModel,
    generate_noise_spes,
    generate_pulse_mimic_spes,
    generate_rfi_spes,
    generate_storm_rfi_spes,
)
from repro.astro.spe import SPE, ObservationKey
from repro.dataplane import SPEBatch


@dataclass(frozen=True)
class SurveyConfig:
    """Receiver/search parameters of one sky survey."""

    name: str
    center_freq_mhz: float
    bandwidth_mhz: float
    sample_time_s: float
    n_beams: int
    obs_length_s: float
    max_dm: float
    snr_threshold: float = 5.0

    def dm_grid(self, coarsen: float = 1.0) -> DMGrid:
        return DMGrid(max_dm=self.max_dm, coarsen=coarsen)

    @classmethod
    def presets(cls) -> dict[str, "SurveyConfig"]:
        """Registry of built-in survey presets keyed by canonical name."""
        return dict(_PRESETS)

    @classmethod
    def preset(cls, name: str) -> "SurveyConfig":
        """Case-insensitive preset lookup accepting common aliases."""
        key = _ALIASES.get(name.lower())
        if key is None:
            known = sorted(_PRESETS) + sorted(
                a for a, k in _ALIASES.items() if a != k.lower()
            )
            raise KeyError(f"unknown survey {name!r}; expected one of {known}")
        return _PRESETS[key]


GBT350DRIFT = SurveyConfig(
    name="GBT350Drift",
    center_freq_mhz=350.0,
    bandwidth_mhz=100.0,
    sample_time_s=8.192e-5,
    n_beams=1,
    obs_length_s=140.0,
    max_dm=500.0,
)

PALFA = SurveyConfig(
    name="PALFA",
    center_freq_mhz=1400.0,
    bandwidth_mhz=300.0,
    sample_time_s=6.4e-5,
    n_beams=7,
    obs_length_s=268.0,
    max_dm=1000.0,
)

CHIME = SurveyConfig(
    name="CHIME",
    center_freq_mhz=600.0,
    bandwidth_mhz=400.0,
    sample_time_s=9.8304e-4,
    n_beams=4,
    obs_length_s=120.0,
    max_dm=2000.0,
)

FAST_CRAFTS = SurveyConfig(
    name="FAST-CRAFTS",
    center_freq_mhz=1250.0,
    bandwidth_mhz=400.0,
    sample_time_s=4.9152e-5,
    n_beams=19,
    obs_length_s=300.0,
    max_dm=1000.0,
)

_PRESETS: dict[str, SurveyConfig] = {
    "GBT350Drift": GBT350DRIFT,
    "PALFA": PALFA,
    "CHIME": CHIME,
    "FAST-CRAFTS": FAST_CRAFTS,
}

_ALIASES: dict[str, str] = {
    "gbt350drift": "GBT350Drift",
    "gbt350": "GBT350Drift",
    "gbt": "GBT350Drift",
    "palfa": "PALFA",
    "chime": "CHIME",
    "fast-crafts": "FAST-CRAFTS",
    "fast": "FAST-CRAFTS",
    "crafts": "FAST-CRAFTS",
}


def resolve_survey(survey: str | SurveyConfig) -> SurveyConfig:
    """Map a survey preset name (case-insensitive, common aliases accepted:
    ``"GBT350Drift"``, ``"PALFA"``, ``"CHIME"``, ``"FAST-CRAFTS"``, ...) to
    its config via the :meth:`SurveyConfig.presets` registry."""
    if isinstance(survey, SurveyConfig):
        return survey
    try:
        return SurveyConfig.preset(survey)
    except KeyError as exc:
        raise ValueError(str(exc).strip('"')) from None


@dataclass
class Observation:
    """One labeled synthetic observation."""

    key: ObservationKey
    config: SurveyConfig
    grid: DMGrid
    spes: list[SPE]
    labels: np.ndarray
    clusters: list[Cluster]
    pulse_truths: list[PulseTruth] = field(default_factory=list)
    #: cluster_id -> (pulsar_name | None, is_rrat).  None = noise/RFI cluster.
    cluster_truth: dict[int, tuple[str | None, bool]] = field(default_factory=dict)
    #: Columnar view of ``spes``; built once by the generator (or lazily)
    #: and read by everything downstream.  Excluded from equality/repr.
    _spe_batch: SPEBatch | None = field(default=None, repr=False, compare=False)

    @property
    def spe_batch(self) -> SPEBatch:
        """The observation's SPEs as columns (the data-plane view)."""
        if self._spe_batch is None:
            self._spe_batch = SPEBatch.from_records(self.spes)
        return self._spe_batch

    def positives(self) -> list[Cluster]:
        return [c for c in self.clusters if self.cluster_truth.get(c.cluster_id, (None, False))[0]]

    def negatives(self) -> list[Cluster]:
        return [c for c in self.clusters if not self.cluster_truth.get(c.cluster_id, (None, False))[0]]


def default_clusterer(grid: DMGrid) -> SinglePulseDBSCAN:
    """Clustering parameters matched to the synthetic event density."""
    return SinglePulseDBSCAN(
        eps_time_s=0.08,
        eps_dm_steps=5.0,
        min_samples=3,
        merge_gap_s=0.2,
    )


def generate_observation(
    config: SurveyConfig,
    pulsars: list[Pulsar],
    mjd: float = 55000.0,
    beam: int = 0,
    n_noise_clusters: int = 60,
    n_rfi_bursts: int = 3,
    n_pulse_mimics: int = 0,
    grid_coarsen: float = 10.0,
    seed: int = 0,
    obs_length_s: float | None = None,
    gain: float = 1.0,
    storm: RFIStormModel | None = None,
) -> Observation:
    """Generate one fully labeled observation.

    Each in-beam pulsar contributes dispersed pulse clusters; noise and RFI
    contribute negatives.  Cluster ground truth is derived by majority vote
    of the generating mechanism of the cluster's SPEs.

    ``gain`` scales the SNR of astrophysical (pulsar) events — a sensitivity
    or calibration step; events falling below the survey threshold are lost.
    ``storm`` overlays a time-correlated :class:`RFIStormModel`: extra
    broadband bursts arrive in storm seasons and every co-temporal non-storm
    event has its SNR suppressed by the inflated noise floor.  The default
    arguments leave the classic draw sequence untouched, so output is
    byte-identical to older call signatures.
    """
    rng = np.random.default_rng(seed)
    grid = config.dm_grid(coarsen=grid_coarsen)
    obs_len = obs_length_s if obs_length_s is not None else config.obs_length_s

    spes: list[SPE] = []
    origins: list[tuple[str | None, bool]] = []  # per-SPE (source name, is_rrat)
    truths: list[PulseTruth] = []

    for pulsar in pulsars:
        p_spes, p_truths = generate_pulsar_spes(
            pulsar,
            obs_len,
            grid,
            config.center_freq_mhz,
            config.bandwidth_mhz,
            sample_time_s=config.sample_time_s,
            snr_threshold=config.snr_threshold,
            rng=rng,
            start_index=len(spes),
        )
        spes.extend(p_spes)
        origins.extend([(pulsar.name, pulsar.is_rrat)] * len(p_spes))
        truths.extend(p_truths)

    noise = generate_noise_spes(
        n_noise_clusters, obs_len, grid, config.sample_time_s, config.snr_threshold, rng
    )
    spes.extend(noise)
    origins.extend([(None, False)] * len(noise))

    rfi = generate_rfi_spes(
        n_rfi_bursts, obs_len, grid, config.sample_time_s, config.snr_threshold, rng
    )
    spes.extend(rfi)
    origins.extend([(None, False)] * len(rfi))

    mimics = generate_pulse_mimic_spes(
        n_pulse_mimics, obs_len, grid, config.sample_time_s, config.snr_threshold, rng
    )
    spes.extend(mimics)
    origins.extend([(None, False)] * len(mimics))

    # Regime modifiers.  All extra rng draws happen after the classic ones,
    # so the default path (gain=1, storm=None) is byte-identical.
    storm_windows: list[tuple[float, float]] = []
    storm_spes: list[SPE] = []
    if storm is not None:
        storm_spes, storm_windows = generate_storm_rfi_spes(
            storm, obs_len, grid, config.sample_time_s, config.snr_threshold, rng
        )
    if gain != 1.0 or storm_windows:
        kept: list[SPE] = []
        kept_origins: list[tuple[str | None, bool]] = []
        remap: dict[int, int] = {}
        for i, (spe, origin) in enumerate(zip(spes, origins)):
            snr = spe.snr
            if origin[0] is not None:
                snr *= gain
            if storm is not None and storm.in_window(spe.time_s, storm_windows):
                snr *= storm.snr_suppression
            if snr < config.snr_threshold:
                continue
            remap[i] = len(kept)
            if snr != spe.snr:
                spe = replace(spe, snr=round(snr, 3))
            kept.append(spe)
            kept_origins.append(origin)
        spes, origins = kept, kept_origins
        truths = [
            replace(t, spe_indices=tuple(
                remap[i] for i in t.spe_indices if i in remap
            ))
            for t in truths
        ]
    spes.extend(storm_spes)
    origins.extend([(None, False)] * len(storm_spes))

    key = ObservationKey(
        dataset=config.name,
        mjd=mjd,
        sky_position=pulsars[0].sky_position if pulsars else "J0000+0000",
        beam=beam,
    )

    if not spes:
        return Observation(key, config, grid, [], np.empty(0, dtype=int), [], truths, {})

    batch = SPEBatch.from_records(spes)
    times, dms, snrs = batch.time_s, batch.dm, batch.snr
    steps = dms / grid.spacing_of(dms)

    clusterer = default_clusterer(grid)
    labels, clusters = clusterer.fit_batch(batch, steps)

    cluster_truth: dict[int, tuple[str | None, bool]] = {}
    for cluster in clusters:
        votes: dict[tuple[str | None, bool], int] = {}
        for i in cluster.indices:
            votes[origins[i]] = votes.get(origins[i], 0) + 1
        winner = max(votes.items(), key=lambda kv: kv[1])[0]
        # A cluster is a positive only if pulsar SPEs dominate it.
        pulsar_frac = sum(v for (name, _r), v in votes.items() if name) / cluster.size
        cluster_truth[cluster.cluster_id] = winner if pulsar_frac >= 0.5 else (None, False)

    return Observation(key, config, grid, spes, labels, clusters, truths,
                       cluster_truth, _spe_batch=batch)
