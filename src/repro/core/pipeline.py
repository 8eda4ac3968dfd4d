"""The four-stage scientific workflow of Fig. 2, end to end.

Stage 1  raw data → SPE files (synthetic observations, written to the DFS)
Stage 2  customized DBSCAN → cluster file (uploaded alongside the data file)
Stage 3  D-RAPID on Sparklet → ML files on the DFS
Stage 4  aggregate ML files → ALM labeling → classification

Note the paper's "raw data" already passed collection/dedispersion/event
detection; stage 1 here generates exactly that intermediate product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.astro.population import Pulsar
from repro.astro.survey import Observation, SurveyConfig, generate_observation
from repro.core.alm import ALM_SCHEMES, AlmScheme, label_instances
from repro.cluster import open_cluster
from repro.core.drapid import DRapidDriver, DRapidResult
from repro.core.search import SearchParams
from repro.dataplane import PulseBatch
from repro.execution import ExecutionConfig
from repro.io.spe_files import read_ml_batch, require_unique_keys, upload_observations
from repro.obs.session import ObsSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfs import DFSClient
    from repro.memo.config import MemoConfig
    from repro.ml.metrics import ClassificationReport
    from repro.obs import ObsConfig
    from repro.sparklet.context import SparkletContext
    from repro.sparklet.faults import FaultConfig

#: DM-grid coarsening of every synthesized observation (recorded in each
#: run's candidate provenance).
GRID_COARSEN = 10.0


@dataclass
class PipelineResult:
    """Artifacts of a full pipeline run (columnar; ``features`` is a
    zero-copy view of the pulse batch's matrix)."""

    observations: list[Observation]
    drapid: DRapidResult
    features: np.ndarray
    is_pulsar: np.ndarray
    is_rrat: np.ndarray
    labels: np.ndarray
    scheme: AlmScheme
    report: "ClassificationReport | None" = None
    #: The run's observability session (``NULL_OBS`` when disabled); its
    #: event log replays into the same metrics the run recorded live.
    obs: ObsSession | None = None


def identify_observations(
    observations: list[Observation],
    *,
    survey: str,
    params: SearchParams,
    num_partitions: int,
    seed: int,
    provenance: dict | None = None,
    fault_config: "FaultConfig | None" = None,
    memo_config: "MemoConfig | None" = None,
    execution: ExecutionConfig | None = None,
    obs: ObsSession | None = None,
    dfs: "DFSClient | None" = None,
    ctx: "SparkletContext | None" = None,
    ml_output_path: str = "/ml/out",
) -> tuple[DRapidResult, "DFSClient"]:
    """Stage 3 on one cluster: upload → D-RAPID → candidate recording.

    The single identification path behind :func:`repro.api.run_drapid` and
    :meth:`SinglePulsePipeline.identify`.  ``provenance`` adds the caller's
    semantic knobs to the ones stored with a recorded run.  Returns the
    result and the DFS holding its ML files (passed in, or built here).
    """
    from repro.memo.config import resolve_memo

    require_unique_keys(observations)
    memo = resolve_memo(memo_config, fault_config=fault_config)
    with open_cluster(execution, obs, app_name="drapid", memo=memo,
                      dfs=dfs, ctx=ctx) as (dfs, ctx):
        data_path, cluster_path = upload_observations(dfs, observations)
        grids = {survey: observations[0].grid} if observations else {}
        driver = DRapidDriver(
            ctx=ctx, dfs=dfs, grids=grids, params=params,
            num_partitions=num_partitions, fault_config=fault_config,
        )
        result = driver.run(data_path, cluster_path, ml_output_path=ml_output_path)
        if memo is not None and memo.config.store_candidates:
            from repro.memo.candidates import record_drapid_run

            record_drapid_run(
                memo, result=result,
                config={"survey": survey, "params": params,
                        "num_partitions": num_partitions, "seed": seed,
                        **(provenance or {})},
                driver=driver, data_path=data_path, cluster_path=cluster_path,
                survey=survey, seed=seed, obs=obs,
            )
        return result, dfs


@dataclass
class SinglePulsePipeline:
    """Composable runner for the Fig. 2 workflow."""

    survey: SurveyConfig
    scheme: AlmScheme | str = "2"
    params: SearchParams = field(default_factory=SearchParams)
    num_partitions: int = 8
    seed: int = 0
    #: Optional chaos knob, forwarded to the D-RAPID driver: stage 3 then
    #: runs under seeded fault injection (results are unchanged by design).
    fault_config: "FaultConfig | None" = None
    #: Observability: an ObsConfig (or a shared ObsSession) wires one event
    #: log + span tree + registry through every layer the run touches.
    obs_config: "ObsConfig | ObsSession | None" = None
    #: Execution knobs: backend + workers
    #: (:class:`repro.execution.ExecutionConfig`).  None → the ``REPRO_*``
    #: environment defaults.  Output is byte-identical across backends on
    #: the same seed.
    execution: ExecutionConfig | None = None
    #: Lineage-hash memoization + candidate recording for stage 3 (None →
    #: the REPRO_MEMO environment default; see :mod:`repro.memo.config`).
    memo_config: "MemoConfig | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.scheme, str):
            self.scheme = ALM_SCHEMES[self.scheme]
        self._obs = ObsSession.from_config(self.obs_config)

    # -- stage 1+2 ---------------------------------------------------------
    def generate(self, pulsars: list[Pulsar], n_observations: int = 4,
                 n_noise_clusters: int = 40, n_rfi_bursts: int = 2) -> list[Observation]:
        """Synthesize observations (events + clustering = stages 1 and 2)."""
        rng = np.random.default_rng(self.seed)
        obs_list: list[Observation] = []
        for i in range(n_observations):
            in_beam = [p for p in pulsars if rng.random() < max(1.0 / max(len(pulsars), 1), 0.3)]
            obs_list.append(
                generate_observation(
                    self.survey,
                    in_beam,
                    mjd=55000.0 + i,
                    beam=i % self.survey.n_beams,
                    n_noise_clusters=n_noise_clusters,
                    n_rfi_bursts=n_rfi_bursts,
                    grid_coarsen=GRID_COARSEN,
                    seed=self.seed + 17 * i,
                )
            )
        return obs_list

    # -- stage 3 -------------------------------------------------------------
    def identify(
        self, observations: list[Observation], dfs: "DFSClient | None" = None,
        ctx: "SparkletContext | None" = None,
    ) -> DRapidResult:
        """Upload inputs to the DFS and run D-RAPID."""
        result, dfs = identify_observations(
            observations, survey=self.survey.name, params=self.params,
            num_partitions=self.num_partitions, seed=self.seed,
            provenance=self._provenance_config(),
            fault_config=self.fault_config, memo_config=self.memo_config,
            execution=self.execution, obs=self._obs, dfs=dfs, ctx=ctx,
        )
        # Round-trip check: the ML files on the DFS reproduce the pulses.
        assert len(read_ml_batch(dfs, result.ml_output_path)) == result.n_pulses
        return result

    def _provenance_config(self) -> dict:
        """This pipeline's semantic knobs for candidate provenance, beyond
        the ones :func:`identify_observations` records for every run."""
        return {
            "scheme": getattr(self.scheme, "name", str(self.scheme)),
            "grid_coarsen": GRID_COARSEN,
        }

    # -- stage 4 -----------------------------------------------------------
    def to_benchmark(
        self, pulses: PulseBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Feature matrix + truth flags + ALM labels for the pulse set.

        The batch's feature matrix is used as-is.
        """
        if not len(pulses):
            raise ValueError("no pulses to build a benchmark from")
        features = pulses.features
        is_pulsar = pulses.is_pulsar
        is_rrat = np.asarray(pulses.is_rrat)
        labels = label_instances(self.scheme, features, is_pulsar, is_rrat)
        return features, is_pulsar, is_rrat, labels

    def run(
        self, pulsars: list[Pulsar], n_observations: int = 4, classify: bool = True
    ) -> PipelineResult:
        """Execute all four stages; stage 4 trains a RandomForest."""
        obs = self._obs
        with obs.tracer.span("pipeline.generate", n_observations=n_observations):
            observations = self.generate(pulsars, n_observations)
        with obs.tracer.span("pipeline.identify"):
            drapid = self.identify(observations)
        with obs.tracer.span("pipeline.benchmark"):
            features, is_pulsar, is_rrat, labels = self.to_benchmark(
                drapid.pulse_batch
            )
        report = None
        if classify:
            # Imported lazily: stage 4 is optional and repro.ml is a large
            # subpackage.
            from repro.ml.forest import RandomForest
            from repro.ml.validation import cross_validate

            assert isinstance(self.scheme, AlmScheme)
            with obs.tracer.span("pipeline.classify", scheme=self.scheme.name):
                report = cross_validate(
                    lambda: RandomForest(n_trees=15, seed=0),
                    features,
                    labels,
                    n_folds=3,
                    positive_collapse=self.scheme,
                    seed=self.seed,
                )
        if obs.enabled:
            obs.registry.counter("pipeline.runs").inc()
            obs.registry.counter("pipeline.pulses").inc(drapid.n_pulses)
            obs.flush()
        return PipelineResult(
            observations=observations,
            drapid=drapid,
            features=features,
            is_pulsar=is_pulsar,
            is_rrat=is_rrat,
            labels=labels,
            scheme=self.scheme,  # type: ignore[arg-type]
            report=report,
            obs=obs if obs.enabled else None,
        )
