"""Labeled single pulse benchmarks (Section 4's data sets, synthesized).

The paper builds two fully labeled benchmarks:

- **GBT350Drift**: 5,204 single pulses from 48 pulsars + 100,000 confirmed
  negatives;
- **PALFA**: 3,170 single pulses from 98 pulsars/RRATs + 100,000 negatives.

:func:`build_benchmark` reproduces the construction end to end: synthesize
a population, generate observations, cluster the events, run RAPID to
*identify* single pulses, and label each identified pulse by the ground
truth of its cluster.  Instance counts are parameterized (paper scale is
expensive; tests use hundreds, benchmarks thousands) but the imbalance
ratio, RRAT fraction, and feature distributions follow the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.astro.population import Pulsar, synthesize_population
from repro.astro.survey import SurveyConfig, generate_observation
from repro.core.alm import ALM_SCHEMES, AlmScheme, label_instances
from repro.core.features import FEATURE_NAMES
from repro.core.rapid import run_rapid_observation_batch
from repro.dataplane import PulseBatch
from repro.ml.dataset import Dataset


@dataclass
class Benchmark:
    """A labeled single pulse benchmark for one survey."""

    survey_name: str
    features: np.ndarray  # (n, 22) in FEATURE_NAMES order
    is_pulsar: np.ndarray  # bool
    is_rrat: np.ndarray  # bool
    source_names: list[str | None]
    #: Columnar source of the arrays above, when built by the data plane
    #: (None for benchmarks loaded from legacy persistence files).
    pulse_batch: PulseBatch | None = None

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_positive(self) -> int:
        return int(self.is_pulsar.sum())

    @property
    def n_negative(self) -> int:
        return self.n_instances - self.n_positive

    @property
    def n_rrat(self) -> int:
        return int(self.is_rrat.sum())

    def labels(self, scheme: AlmScheme | str) -> np.ndarray:
        return label_instances(
            scheme, self.features, self.is_pulsar, self.is_rrat,
            source_names=self.source_names,
        )

    def dataset(self, scheme: AlmScheme | str) -> Dataset:
        if isinstance(scheme, str):
            scheme = ALM_SCHEMES[scheme]
        return Dataset(
            X=self.features,
            y=self.labels(scheme),
            feature_names=FEATURE_NAMES,
            class_names=scheme.classes,
            name=f"{self.survey_name}-scheme{scheme.name}",
        )

    def subsample(self, n_positive: int, n_negative: int, seed: int = 0) -> "Benchmark":
        """Random subset preserving RRAT representation where possible."""
        rng = np.random.default_rng(seed)
        pos_idx = np.nonzero(self.is_pulsar)[0]
        neg_idx = np.nonzero(~self.is_pulsar)[0]
        if n_positive > pos_idx.size or n_negative > neg_idx.size:
            raise ValueError(
                f"requested {n_positive}/{n_negative} but benchmark has "
                f"{pos_idx.size}/{neg_idx.size}"
            )
        keep = np.concatenate(
            [
                rng.choice(pos_idx, size=n_positive, replace=False),
                rng.choice(neg_idx, size=n_negative, replace=False),
            ]
        )
        rng.shuffle(keep)
        return Benchmark(
            survey_name=self.survey_name,
            features=self.features[keep],
            is_pulsar=self.is_pulsar[keep],
            is_rrat=self.is_rrat[keep],
            source_names=[self.source_names[i] for i in keep],
            pulse_batch=(
                self.pulse_batch.take(keep) if self.pulse_batch is not None else None
            ),
        )


def build_benchmark(
    survey: SurveyConfig,
    n_pulsars: int = 24,
    target_positive: int = 500,
    target_negative: int = 3000,
    rrat_fraction: float = 0.15,
    grid_coarsen: float = 10.0,
    seed: int = 0,
    max_observations: int = 400,
) -> Benchmark:
    """Generate observations and identify pulses until targets are met.

    Each observation carries a couple of in-beam pulsars plus a heavy load
    of noise clusters and RFI bursts so negatives accumulate at roughly the
    paper's imbalance.  Raises if ``max_observations`` is hit before the
    targets — a misconfiguration guard, not an expected path.
    """
    rng = np.random.default_rng(seed)
    population = synthesize_population(
        n_pulsars, rrat_fraction=rrat_fraction, max_dm=survey.max_dm * 0.6, seed=seed + 1
    )

    chunks: list[PulseBatch] = []
    n_pos = n_neg = 0

    for obs_i in range(max_observations):
        if n_pos >= target_positive and n_neg >= target_negative:
            break
        # Rotate through the population so every pulsar contributes.
        k = int(rng.integers(1, 3))
        in_beam: list[Pulsar] = [
            population[(obs_i * 2 + j) % len(population)] for j in range(k)
        ]
        obs = generate_observation(
            survey,
            in_beam if n_pos < target_positive else [],
            mjd=55000.0 + obs_i,
            beam=obs_i % survey.n_beams,
            n_noise_clusters=110,
            n_rfi_bursts=4,
            n_pulse_mimics=45,
            grid_coarsen=grid_coarsen,
            seed=seed + 101 * obs_i,
            obs_length_s=min(survey.obs_length_s, 90.0),
        )
        result = run_rapid_observation_batch(obs)
        pb = result.pulse_batch
        # Cap each class in pulse order, then restore the original row
        # order — identical to the retired per-pulse accumulation loop.
        positive = pb.is_pulsar
        pos_idx = np.nonzero(positive)[0][: max(target_positive - n_pos, 0)]
        neg_idx = np.nonzero(~positive)[0][: max(target_negative - n_neg, 0)]
        keep = np.sort(np.concatenate([pos_idx, neg_idx]))
        if keep.size:
            chunks.append(pb.take(keep))
        n_pos += pos_idx.size
        n_neg += neg_idx.size
    else:
        raise RuntimeError(
            f"benchmark generation exhausted {max_observations} observations "
            f"with {n_pos}/{target_positive} positives, {n_neg}/{target_negative} negatives"
        )

    collected = PulseBatch.concat(chunks)
    order = np.argsort(rng.random(len(collected)))
    batch = collected.take(order)
    return Benchmark(
        survey_name=survey.name,
        features=batch.features,
        is_pulsar=batch.is_pulsar,
        is_rrat=np.asarray(batch.is_rrat),
        source_names=batch.source_name.tolist(),
        pulse_batch=batch,
    )


_BENCH_CACHE: dict[tuple, Benchmark] = {}


def cached_benchmark(survey: SurveyConfig, **kwargs) -> Benchmark:
    """Memoized :func:`build_benchmark` (benchmark files reuse the data)."""
    key = (survey.name,) + tuple(sorted(kwargs.items()))
    if key not in _BENCH_CACHE:
        _BENCH_CACHE[key] = build_benchmark(survey, **kwargs)
    return _BENCH_CACHE[key]
