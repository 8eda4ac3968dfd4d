"""The four-stage scientific workflow of Fig. 2, as functions of one
:class:`repro.api.PipelineConfig`.

Stage 1  raw data → SPE files (synthetic observations, written to the DFS)
Stage 2  customized DBSCAN → cluster file (uploaded alongside the data file)
Stage 3  D-RAPID on Sparklet → ML files on the DFS
Stage 4  aggregate ML files → ALM labeling → classification

Note the paper's "raw data" already passed collection/dedispersion/event
detection; stage 1 here generates exactly that intermediate product.
:func:`generate_observations` is stages 1 and 2, :func:`identify_observations`
stage 3; :func:`repro.api.run_pipeline` composes them with stage 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.astro.population import Pulsar, synthesize_population
from repro.astro.survey import Observation, generate_observation, resolve_survey
from repro.cluster import open_cluster
from repro.core.alm import AlmScheme
from repro.core.drapid import DRapidDriver, DRapidResult
from repro.io.spe_files import dataset_grids, require_unique_keys, upload_observations
from repro.obs.session import ObsSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import PipelineConfig
    from repro.dfs import DFSClient
    from repro.ml.metrics import ClassificationReport
    from repro.sparklet.context import SparkletContext

#: DM-grid coarsening of every synthesized observation (recorded in each
#: run's candidate provenance).
GRID_COARSEN = 10.0
#: Noise clusters and RFI bursts in every synthesized observation.
N_NOISE_CLUSTERS = 40
N_RFI_BURSTS = 2


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


def generate_observations(
    config: "PipelineConfig", pulsars: Sequence[Pulsar] | None = None
) -> list[Observation]:
    """Stages 1 and 2: ``config.n_observations`` synthetic pointings of
    ``config.survey``, their events clustered.

    ``pulsars`` overrides the sky; by default ``config.n_pulsars`` sources
    are synthesized from ``config.seed``.  Each pointing draws its in-beam
    sources from one rng seeded by ``config.seed``.
    """
    survey = resolve_survey(config.survey)
    if pulsars is None:
        pulsars = synthesize_population(config.n_pulsars, seed=config.seed)
    pulsars = list(pulsars)
    obs = ObsSession.from_config(config.obs_config)
    with obs.tracer.span("pipeline.generate", n_observations=config.n_observations):
        rng = np.random.default_rng(config.seed)
        observations: list[Observation] = []
        for i in range(config.n_observations):
            in_beam = [p for p in pulsars if rng.random() < max(1.0 / max(len(pulsars), 1), 0.3)]
            observations.append(
                generate_observation(
                    survey,
                    in_beam,
                    mjd=55000.0 + i,
                    beam=i % survey.n_beams,
                    n_noise_clusters=N_NOISE_CLUSTERS,
                    n_rfi_bursts=N_RFI_BURSTS,
                    grid_coarsen=GRID_COARSEN,
                    seed=config.seed + 17 * i,
                )
            )
    return observations


def identify_observations(
    config: "PipelineConfig",
    observations: list[Observation],
    *,
    dfs: "DFSClient | None" = None,
    ctx: "SparkletContext | None" = None,
    ml_output_path: str = "/ml/out",
    provenance: dict | None = None,
) -> tuple[DRapidResult, "DFSClient"]:
    """Stage 3 on one cluster: upload → D-RAPID → candidate recording.

    The single identification path behind :func:`repro.api.run_drapid` and
    :func:`repro.api.run_pipeline`.  Each dataset is searched on its own
    observations' trial-DM ladder (:func:`repro.io.spe_files.dataset_grids`),
    and one observability session (``config.obs_config``) covers upload,
    execution and output.  ``provenance`` adds the caller's semantic knobs to
    the ones stored with a recorded run.  Returns the result and the DFS
    holding its ML files (passed in, or built here).
    """
    from repro.memo.config import resolve_memo

    survey = resolve_survey(config.survey).name
    require_unique_keys(observations)
    grids = dataset_grids(observations)
    obs = ObsSession.from_config(config.obs_config)
    memo = resolve_memo(config.memo_config, fault_config=config.fault_config)
    with open_cluster(config.execution, obs, app_name="drapid", memo=memo,
                      dfs=dfs, ctx=ctx) as (dfs, ctx):
        data_path, cluster_path = upload_observations(dfs, observations)
        driver = DRapidDriver(
            ctx=ctx, dfs=dfs, grids=grids, params=config.params,
            num_partitions=config.num_partitions, fault_config=config.fault_config,
        )
        result = driver.run(data_path, cluster_path, ml_output_path=ml_output_path)
        if memo is not None and memo.config.store_candidates:
            from repro.memo.candidates import record_drapid_run

            record_drapid_run(
                memo, result=result,
                config={"survey": survey, "params": config.params,
                        "num_partitions": config.num_partitions,
                        "seed": config.seed, **(provenance or {})},
                driver=driver, data_path=data_path, cluster_path=cluster_path,
                survey=survey, seed=config.seed, obs=obs,
            )
        return result, dfs
