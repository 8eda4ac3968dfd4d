"""The five workloads: seeded inputs, one pass of the chain, output checks.

Each workload makes one layer of the chain voltages → dedispersion → boxcar
→ SPEs → DBSCAN → D-RAPID → 22 features → ALM classification the one that
matters (see README.md for why each exists).  Layers are driven from outside,
through their public functions; spans are opened here, in sequence, so they
tile a pass.

Inputs are sized so that what a pass costs does not depend on the seed: the
seed moves noise, pulse times, DMs and per-pulse energies, while the number
and brightness tier of injected pulses and the sky population are fixed.  A
benchmark whose work varied by seed could not tell a regression from a draw.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np
from spans import Tracer

from repro.api import ExecutionConfig, KernelConfig, PipelineConfig, run_drapid
from repro.astro.dispersion import K_DM
from repro.astro.filterbank import (
    InjectedPulse,
    dedisperse_all,
    single_pulse_search,
    synthesize_filterbank,
)
from repro.astro.kernels import resolve_impl, single_pulse_block_search
from repro.astro.population import synthesize_population
from repro.astro.spe import ObservationKey, spes_from_search
from repro.astro.survey import (
    GBT350DRIFT,
    Observation,
    default_clusterer,
    generate_observation,
)
from repro.core.alm import ALM_SCHEMES, label_instances
from repro.core.features import FEATURE_NAMES
from repro.core.rapid import run_rapid_observation_batch
from repro.dataplane import PulseBatch, SPEBatch
from repro.io.spe_files import build_cluster_file, build_data_file
from repro.ml import RandomForest, cross_validate, select_top_k
from repro.ml.feature_selection import rank_info_gain
from repro.sparklet.executor import get_pool

SURVEY = GBT350DRIFT
F_LOW_MHZ = SURVEY.center_freq_mhz - SURVEY.bandwidth_mhz / 2.0
F_HIGH_MHZ = SURVEY.center_freq_mhz + SURVEY.bandwidth_mhz / 2.0
#: Dispersive sweep across the band, seconds per unit DM.
SWEEP_S_PER_DM = K_DM * (F_LOW_MHZ**-2 - F_HIGH_MHZ**-2)
N_CHANNELS = 64
SAMPLE_TIME_S = 1e-3
SNR_THRESHOLD = 5.0
BOXCAR_WIDTHS = (1, 2, 4, 8, 16, 32)
#: The sky is fixed; the seed draws what each pointing sees of it.  Pulsar
#: brightness is heavy-tailed, so a per-seed population would move the SPE
#: count (and every timing) by 2x between seeds.
SKY_SEED = 3
N_SKY_PULSARS = 6

_F = {name: i for i, name in enumerate(FEATURE_NAMES)}


@dataclass
class PassResult:
    """What one pass produced, reduced to what the harness compares."""

    checksum: str
    n_pulses: int
    recall: float
    #: Per-layer counts and derived numbers, keyed by full metric name.
    counts: dict[str, float]
    #: Round-trip and join checks that must hold on every pass.
    problems: list[str] = field(default_factory=list)
    #: Objects the standalone layer timings reuse (not serialized).
    artifacts: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (seed, scale) -> inputs; timed as set-up.  ``scale`` < 1 is --smoke.
    prepare: Callable[[int, float], Any]
    #: One pass of the chain, input in memory -> checked result.
    run: Callable[[Any, Tracer], PassResult]
    #: Layer timings taken outside the pass on a traced run.
    standalone: Callable[[Any, PassResult], dict[str, float]]
    #: Below this the output is wrong, whatever the time.
    recall_floor: float
    #: The same chain on the serial backend; its bytes must equal the pass's.
    serial_twin: Callable[[Any], PassResult] | None = None


def _digest(*arrays: np.ndarray, n: int) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(str(n).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Shared: the identification stage and what sparklet reports about it
# ---------------------------------------------------------------------------
def _sparklet_counts(metrics, run_s: float) -> dict[str, float]:
    """Read the public JobMetrics of one D-RAPID run."""
    parse = [s for s in metrics.stages if s.is_shuffle_map]
    search = [s for s in metrics.stages if not s.is_shuffle_map]
    search_s = sum(s.total_task_seconds for s in search)
    # A stage cannot end before its busiest worker does; under the serial
    # backend there is one worker and this is the stage's task total.
    stage_wall = 0.0
    for stage in metrics.stages:
        per_worker: dict[str, float] = {}
        for t in stage.tasks:
            per_worker[t.worker_id] = per_worker.get(t.worker_id, 0.0) + t.duration_s
        stage_wall += max(per_worker.values(), default=0.0)
    tasks = [t for s in metrics.stages for t in s.tasks]
    return {
        "sparklet.n_stages": len(metrics.stages),
        "sparklet.n_tasks": metrics.num_tasks,
        "sparklet.task_s_total": metrics.total_task_seconds,
        "sparklet.parse_stage_task_s": sum(s.total_task_seconds for s in parse),
        "sparklet.search_stage_task_s": search_s,
        "sparklet.search_stage_max_task_frac": (
            max((s.max_task_seconds for s in search), default=0.0) / search_s
            if search_s else 0.0
        ),
        "sparklet.shuffle_write_bytes": sum(t.shuffle_write_bytes for t in tasks),
        "sparklet.shuffle_read_bytes": sum(t.shuffle_read_bytes for t in tasks),
        "sparklet.task_retries": metrics.total_retries,
        "core.drapid.driver_self_s": run_s - stage_wall,
    }


def _identify(
    config: PipelineConfig, observations: list[Observation], tracer: Tracer
) -> tuple[PulseBatch, dict[str, float], list[str]]:
    """D-RAPID over sparklet, then the ML rows read back and counted."""
    with tracer.span("core.drapid.run"):
        t0 = perf_counter()
        result = run_drapid(config, observations)
        run_s = perf_counter() - t0
    # run_drapid owns its DFS, so the part files cannot be listed from here;
    # parse the same rows with the parser read_ml_batch applies per part file.
    with tracer.span("io.spe_files.read_ml"):
        reread = PulseBatch.from_ml_lines(result.pulse_batch.to_ml_lines())
    counts = _sparklet_counts(result.metrics, run_s)
    counts.update({
        "core.drapid.rows_in": sum(len(o.spe_batch) for o in observations),
        "core.drapid.clusters_in": result.n_clusters,
        "core.drapid.pulses_out": result.n_pulses,
        "core.drapid.null_joins": result.n_null_joins,
        "io.spe_files.ml_rows": len(reread),
    })
    problems = []
    if len(reread) != result.n_pulses:
        problems.append(f"ML round trip read {len(reread)} of {result.n_pulses} pulses")
    if result.n_null_joins:
        problems.append(f"{result.n_null_joins} clusters joined no SPE data")
    if counts["sparklet.task_retries"]:
        problems.append(f"{counts['sparklet.task_retries']} task retries on a fault-free run")
    return result.pulse_batch, counts, problems


def _standalone_files(observations: list[Observation]) -> dict[str, float]:
    t0 = perf_counter()
    n_bytes = len(build_data_file(observations)) + len(build_cluster_file(observations))
    return {
        "io.spe_files.build_s": perf_counter() - t0,
        "io.spe_files.bytes_out": n_bytes,
    }


def _config(backend: str = "serial", num_workers: int | None = None) -> PipelineConfig:
    return PipelineConfig(
        num_partitions=32,
        execution=ExecutionConfig(backend=backend, num_workers=num_workers),
    )


# ---------------------------------------------------------------------------
# voltages_fine / voltages_dense: the telescope-side chain
# ---------------------------------------------------------------------------
@dataclass
class VoltageInputs:
    filterbank: Any
    pulses: list[InjectedPulse]
    #: The boxcar S/N each injected pulse was scaled to reach.
    target_snrs: list[float]
    grid: Any
    trial_dms: np.ndarray
    sizes: dict[str, float]


def _boxcar_gain(sigma_samples: float) -> float:
    """Best boxcar response to a unit-amplitude Gaussian, in noise sigmas."""
    k = np.arange(-256, 257)
    csum = np.concatenate([[0.0], np.cumsum(np.exp(-0.5 * (k / sigma_samples) ** 2))])
    return max(
        float((csum[w:] - csum[:-w]).max()) / np.sqrt(w) for w in BOXCAR_WIDTHS
    )


def _voltage_inputs(
    seed: int, scale: float, *, coarsen: float, design: tuple[tuple[float, float, float], ...]
) -> VoltageInputs:
    """One filterbank holding the designed pulses.

    ``design`` fixes each pulse's (target S/N, DM, width in ms), by falling
    DM, and pulses arrive in that order at equal steps: how many SPEs a pulse
    sheds depends on all three (ladder spacing varies 100x with DM), and
    whether neighbours' clusters merge depends on the layout, so a free draw
    would move the work by 2x between seeds.  The seed jitters DM, width and
    arrival time and draws the noise.
    """
    n_samples = int(16384 * scale)
    duration_s = n_samples * SAMPLE_TIME_S
    design = design[:: int(round(1 / scale))]
    rng = np.random.default_rng(seed)
    grid = SURVEY.dm_grid(coarsen=coarsen)
    # The last (lowest-DM) pulse's sweep must still end inside the data.
    step = (duration_s - 1.0 - SWEEP_S_PER_DM * design[-1][1] * scale) / (len(design) - 1)
    pulses, targets = [], []
    for k, (snr, dm, width) in enumerate(design):
        dm = dm * scale + float(rng.uniform(-1.0, 1.0))
        width *= float(rng.uniform(0.95, 1.05))
        time_s = 0.5 + k * step + float(rng.uniform(-0.05, 0.05))
        gain = _boxcar_gain(width / 1e3 / SAMPLE_TIME_S)
        pulses.append(InjectedPulse(time_s, dm, width, snr / (np.sqrt(N_CHANNELS) * gain)))
        targets.append(float(snr))
    fb = synthesize_filterbank(
        duration_s, N_CHANNELS, F_LOW_MHZ, F_HIGH_MHZ, SAMPLE_TIME_S,
        pulses=pulses, seed=int(rng.integers(0, 2**31)),
    )
    trial_dms = grid.trial_dms()
    return VoltageInputs(
        fb, pulses, targets, grid, trial_dms,
        sizes={
            "channels": N_CHANNELS,
            "samples": n_samples,
            "trial_dms": int(trial_dms.size),
            "injected_pulses": len(pulses),
        },
    )


def _match_injected(
    pulses: list[InjectedPulse], targets: list[float], grid, features: np.ndarray
) -> tuple[int, list[float]]:
    """Injected pulses recovered as an emitted single pulse.

    A match peaks within 5 ladder steps of the injected DM (plus the DM error
    that smears the pulse by its own width) and spans its arrival time.
    Returns the hit count and, per hit, recovered over target S/N.
    """
    peak_dm = features[:, _F["SNRPeakDM"]]
    start, stop = features[:, _F["StartTime"]], features[:, _F["StopTime"]]
    max_snr = features[:, _F["MaxSNR"]]
    hits, recovered = 0, []
    for pulse, target in zip(pulses, targets):
        width_s = pulse.width_ms / 1e3
        dm_tol = 5.0 * grid.spacing_at(pulse.dm) + width_s / SWEEP_S_PER_DM
        t_tol = 5.0 * width_s + BOXCAR_WIDTHS[-1] * SAMPLE_TIME_S
        hit = (
            (np.abs(peak_dm - pulse.dm) <= dm_tol)
            & (start - t_tol <= pulse.time_s)
            & (pulse.time_s <= stop + t_tol)
        )
        if hit.any():
            hits += 1
            recovered.append(float(max_snr[hit].max()) / target)
    return hits, recovered


def _voltage_pass(inp: VoltageInputs, tracer: Tracer) -> PassResult:
    fb, kernel = inp.filterbank, KernelConfig()
    n_cells = inp.trial_dms.size * fb.n_samples
    counts: dict[str, float] = {
        "astro.kernels.dedisperse_madds": fb.n_channels * n_cells,
        "astro.kernels.boxcar_cells": n_cells * len(BOXCAR_WIDTHS),
    }
    if tracer.enabled:
        # The two halves of single_pulse_search, so each gets a span.
        k = kernel.resolved()
        with tracer.span("astro.kernels.dedisperse"):
            block = dedisperse_all(fb, inp.trial_dms, out_dtype=np.float32, kernel=k)
        with tracer.span("astro.kernels.boxcar"):
            found = single_pulse_block_search(
                block, SNR_THRESHOLD, BOXCAR_WIDTHS,
                boxcar=k.boxcar, impl=resolve_impl(k.impl),
            )
        counts["astro.kernels.dedisperse_bytes"] = fb.data.nbytes + block.nbytes
        del block
        with tracer.span("astro.spe.materialize"):
            spes = spes_from_search(inp.trial_dms, fb.sample_time_s, *found)
            batch = SPEBatch.from_records(spes)
    else:
        spes = single_pulse_search(
            fb, inp.trial_dms, snr_threshold=SNR_THRESHOLD,
            boxcar_widths=BOXCAR_WIDTHS, kernel=kernel,
        )
        batch = SPEBatch.from_records(spes)
    with tracer.span("astro.clustering.fit"):
        steps = batch.dm / inp.grid.spacing_of(batch.dm)
        labels, clusters = default_clusterer(inp.grid).fit_batch(batch, steps)
    rows = len(batch)
    counts.update({
        "astro.kernels.detections": len(spes),
        "astro.spe.rows_out": rows,
        "astro.clustering.rows_in": rows,
        "astro.clustering.clusters_out": len(clusters),
        "astro.clustering.clustered_frac": int((labels >= 0).sum()) / rows,
        "astro.clustering.max_cluster_frac": max(c.size for c in clusters) / rows,
    })
    observation = Observation(
        key=ObservationKey(SURVEY.name, 55000.0, "J0000+0000", 0),
        config=SURVEY, grid=inp.grid, spes=spes, labels=labels,
        clusters=clusters, _spe_batch=batch,
    )
    pulse_batch, drapid_counts, problems = _identify(_config(), [observation], tracer)
    counts.update(drapid_counts)

    with tracer.span("harness.check"):
        hits, recovered = _match_injected(
            inp.pulses, inp.target_snrs, inp.grid, pulse_batch.features
        )
        counts["astro.kernels.snr_recovered_frac"] = (
            float(np.mean(recovered)) if recovered else 0.0
        )
        checksum = _digest(
            batch.dm, batch.snr, batch.time_s, pulse_batch.features, n=len(pulse_batch)
        )
    return PassResult(
        checksum, len(pulse_batch), hits / len(inp.pulses), counts, problems,
        artifacts=[observation],
    )


def _voltage_standalone(_inp: VoltageInputs, result: PassResult) -> dict[str, float]:
    return _standalone_files(result.artifacts)


# (target S/N, DM, width ms).  Fine: 21 pulses a search must find (boxcar S/N
# 9-14) and three it cannot yet (S/N 3), so recall sits near 0.85 until a
# kernel loses a third of the signal or a search gains sensitivity; a ladder
# crossing the threshold would make recall a coin toss per seed.  Dense:
# bright and wide, so each floods hundreds of SPEs and neighbours merge.
_FINE_DESIGN = tuple(
    (snr, 289.5 - 11.5 * i, (2.0, 5.0, 8.0, 12.0)[i % 4])
    for i, snr in enumerate((9, 12, 10, 14, 11, 3, 12, 13) * 3)
)
_DENSE_DESIGN = tuple(
    (28.0 + 2.0 * (i % 3), 289.5 - 11.5 * i, 8.0 + 2.0 * (i % 3)) for i in range(24)
)


def _prepare_fine(seed: int, scale: float) -> VoltageInputs:
    return _voltage_inputs(seed, scale, coarsen=4.0, design=_FINE_DESIGN)


def _prepare_dense(seed: int, scale: float) -> VoltageInputs:
    return _voltage_inputs(seed, scale, coarsen=10.0, design=_DENSE_DESIGN)


# ---------------------------------------------------------------------------
# survey_identify / survey_identify_par: the paper's D-RAPID job
# ---------------------------------------------------------------------------
@dataclass
class SurveyInputs:
    observations: list[Observation]
    config: PipelineConfig
    #: (observation key, cluster id) of every ground-truth positive cluster.
    positives: set[tuple[str, int]]
    sizes: dict[str, float]
    pool_warm_s: float = 0.0


def _survey_observations(seed: int, scale: float) -> list[Observation]:
    pulsars = synthesize_population(N_SKY_PULSARS, seed=SKY_SEED)
    n_obs = max(4, int(round(48 * scale)))
    obs_seeds = np.random.default_rng(seed).integers(0, 2**31, size=n_obs)
    return [
        generate_observation(
            SURVEY,
            [pulsars[i % N_SKY_PULSARS], pulsars[(i + 1) % N_SKY_PULSARS]],
            mjd=55000.0 + i, beam=0, n_noise_clusters=40, n_rfi_bursts=2,
            grid_coarsen=10.0, seed=int(obs_seeds[i]), obs_length_s=60.0,
        )
        for i in range(n_obs)
    ]


def _survey_inputs(seed: int, scale: float, config: PipelineConfig) -> SurveyInputs:
    observations = _survey_observations(seed, scale)
    positives = {
        (o.key.to_key(), c.cluster_id) for o in observations for c in o.positives()
    }
    return SurveyInputs(
        observations, config, positives,
        sizes={
            "observations": len(observations),
            "spes": sum(len(o.spe_batch) for o in observations),
            "clusters": sum(len(o.clusters) for o in observations),
            "positive_clusters": len(positives),
            "num_partitions": config.num_partitions,
        },
    )


def _prepare_survey(seed: int, scale: float) -> SurveyInputs:
    return _survey_inputs(seed, scale, _config())


def _prepare_survey_par(seed: int, scale: float) -> SurveyInputs:
    workers = min(2, os.cpu_count() or 1)
    config = _config("parallel", workers)
    inp = _survey_inputs(seed, scale, config)
    # Spawn the pool and make every worker import the search code, so the
    # passes time steady-state workers, not interpreter start-up.
    t0 = perf_counter()
    run_drapid(config, inp.observations[: 2 * workers])
    inp.pool_warm_s = perf_counter() - t0
    inp.sizes["workers"] = len(get_pool().worker_pids())
    return inp


def _survey_pass(inp: SurveyInputs, tracer: Tracer, config: PipelineConfig | None = None) -> PassResult:
    pulse_batch, counts, problems = _identify(config or inp.config, inp.observations, tracer)
    with tracer.span("harness.check"):
        flagged = pulse_batch.is_pulsar
        found = set(zip(
            pulse_batch.observation_key[flagged].tolist(),
            pulse_batch.cluster_id[flagged].tolist(),
        ))
        recall = len(found & inp.positives) / len(inp.positives)
        checksum = _digest(pulse_batch.features, n=len(pulse_batch))
    return PassResult(checksum, len(pulse_batch), recall, counts, problems)


def _survey_serial_twin(inp: SurveyInputs) -> PassResult:
    return _survey_pass(inp, Tracer(), _config())


def _survey_standalone(inp: SurveyInputs, _result: PassResult) -> dict[str, float]:
    """Algorithm 1 + features with no sparklet: what distribution costs."""
    out = _standalone_files(inp.observations)
    t0 = perf_counter()
    n = sum(run_rapid_observation_batch(o).n_pulses for o in inp.observations)
    out["core.rapid.search_s"] = perf_counter() - t0
    out["core.rapid.pulses_out"] = n
    if inp.pool_warm_s:
        out["sparklet.executor.pool_warm_s"] = inp.pool_warm_s
        out["sparklet.executor.workers"] = inp.sizes["workers"]
    return out


# ---------------------------------------------------------------------------
# classify_alm: the paper's stage 4
# ---------------------------------------------------------------------------
@dataclass
class ClassifyInputs:
    pulses: PulseBatch
    sizes: dict[str, float]


_SCHEME = ALM_SCHEMES["8"]


def _forest() -> RandomForest:
    return RandomForest(n_trees=20, seed=0)


def _prepare_classify(seed: int, scale: float) -> ClassifyInputs:
    # A second seed stream, so these are not survey_identify's pointings.
    observations = _survey_observations(seed + 1_000_003, scale)
    pulses = PulseBatch.concat(
        [run_rapid_observation_batch(o).pulse_batch for o in observations]
    )
    return ClassifyInputs(pulses, sizes={
        "pulses": len(pulses),
        "positive_pulses": int(pulses.is_pulsar.sum()),
        "features": len(FEATURE_NAMES),
    })


def _classify_pass(inp: ClassifyInputs, tracer: Tracer) -> PassResult:
    p = inp.pulses
    with tracer.span("core.alm.label"):
        y = label_instances(_SCHEME, p.features, p.is_pulsar, p.is_rrat)
    with tracer.span("ml.feature_selection.rank"):
        top = select_top_k(rank_info_gain(p.features, y), 10)
    with tracer.span("ml.validation.cv"):
        full = cross_validate(_forest, p.features, y, n_folds=3, positive_collapse=_SCHEME)
        top10 = cross_validate(
            _forest, p.features, y, n_folds=3, positive_collapse=_SCHEME,
            feature_subset=top,
        )
    with tracer.span("harness.check"):
        checksum = _digest(y, np.array(top), full.confusion, top10.confusion, n=len(p))
    counts = {"ml.forest.rows": len(p)}
    return PassResult(checksum, len(p), full.recall, counts, artifacts=(y, top))


def _classify_standalone(inp: ClassifyInputs, result: PassResult) -> dict[str, float]:
    """One fit per feature set on the full matrix: the paper's headline."""
    y, top = result.artifacts
    X = inp.pulses.features
    t0 = perf_counter()
    forest = _forest().fit(X, y)
    t1 = perf_counter()
    forest.predict(X)
    t2 = perf_counter()
    _forest().fit(X[:, top], y)
    t3 = perf_counter()
    return {
        "ml.forest.fit_s": t1 - t0,
        "ml.forest.predict_s": t2 - t1,
        "ml.forest.fit_top10_s": t3 - t2,
        "ml.forest.train_time_saving_frac": 1.0 - (t3 - t2) / (t1 - t0),
    }


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "voltages_fine",
        "fine DM ladder, faint pulses: dedispersion and boxcar kernels are most of the pass",
        _prepare_fine, _voltage_pass, _voltage_standalone, recall_floor=0.6,
    ),
    Workload(
        "voltages_dense",
        "coarse ladder, bright wide pulses flood SPEs: DBSCAN is most of the pass, kernels are cheap",
        _prepare_dense, _voltage_pass, _voltage_standalone, recall_floor=0.7,
    ),
    Workload(
        "survey_identify",
        "the paper's Fig. 4 job: 48 pointings through serial D-RAPID; kernels and DBSCAN bypassed",
        _prepare_survey, _survey_pass, _survey_standalone, recall_floor=0.6,
    ),
    Workload(
        "survey_identify_par",
        "same job on the parallel backend: only here do the worker pool and shm transport work",
        _prepare_survey_par, _survey_pass, _survey_standalone, recall_floor=0.6,
        serial_twin=_survey_serial_twin,
    ),
    Workload(
        "classify_alm",
        "the paper's stage 4: ALM labels, InfoGain top 10, RandomForest CV; identification bypassed",
        _prepare_classify, _classify_pass, _classify_standalone, recall_floor=0.9,
    ),
)}
