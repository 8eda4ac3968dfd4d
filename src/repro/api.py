"""The blessed front door: one frozen config, one call, one result.

Everything a survey scientist needs from this reproduction is reachable
through two functions::

    from repro.api import PipelineConfig, run_pipeline

    result = run_pipeline(PipelineConfig(survey="GBT350Drift", seed=42))

:func:`run_pipeline` executes the full Fig. 2 workflow (synthesize →
cluster → D-RAPID identify → ALM label, optionally classify);
:func:`run_drapid` runs only the distributed identification stage on
observations you already have; :func:`run_streaming` replays the same
workload through the micro-batch streaming engine
(:mod:`repro.streaming`) and produces output byte-identical to
:func:`run_pipeline` on the same data and seed.  All honour the same
:class:`PipelineConfig`, including its fault-injection and observability
knobs, and produce output identical to driving the underlying classes
directly (``SinglePulsePipeline(...)`` / a hand-built ``DRapidDriver``) on
the same seed — the facade adds no behaviour, only a stable surface.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.astro.population import Pulsar, synthesize_population
from repro.astro.survey import GBT350DRIFT, PALFA, Observation, SurveyConfig
from repro.cluster import open_cluster
from repro.core.drapid import paper_partitions
from repro.core.pipeline import (
    PipelineResult,
    SinglePulsePipeline,
    identify_observations,
)
from repro.core.search import SearchParams
from repro.execution import (
    ExecutionConfig,
    KernelConfig,
    env_execution_config,
)
from repro.obs.session import ObsSession
from repro.sparklet.pools import DEFAULT_POOL, PoolConfig
from repro.streaming.engine import LinearCostModel, StreamingResult
from repro.streaming.sessions import AdmissionConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.drapid import DRapidResult
    from repro.dfs import DFSClient
    from repro.memo.config import MemoConfig
    from repro.obs import ObsConfig
    from repro.sparklet.context import SparkletContext
    from repro.sparklet.faults import FaultConfig

__all__ = [
    "AdmissionConfig",
    "CampaignConfig",
    "CampaignResult",
    "ExecutionConfig",
    "KernelConfig",
    "MemoConfig",
    "PipelineConfig",
    "ServingConfig",
    "ServingResult",
    "StreamingConfig",
    "TenantConfig",
    "env_execution_config",
    "run_campaign",
    "run_pipeline",
    "run_drapid",
    "run_serving",
    "run_streaming",
    "resolve_survey",
]


def __getattr__(name: str):
    # Heavyweight subsystems are re-exported lazily so `from repro.api
    # import MemoConfig` (or the campaign types) works without repro.api
    # importing them at module load.
    if name == "MemoConfig":
        from repro.memo.config import MemoConfig

        return MemoConfig
    if name in ("CampaignConfig", "CampaignResult"):
        from repro.campaign import runner as _campaign_runner

        return getattr(_campaign_runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline run depends on, in one immutable record.

    Frozen so a config can be shared, hashed into run manifests, and
    trusted not to drift between the moment it is logged and the moment it
    executes.
    """

    survey: str | SurveyConfig = "GBT350Drift"
    #: ALM labeling scheme name (Table 3: "2", "4*", "4", "7", "8").
    scheme: str = "2"
    params: SearchParams = field(default_factory=SearchParams)
    num_partitions: int = 8
    seed: int = 0
    #: Synthetic population/workload size (used when no pulsars are given).
    n_pulsars: int = 6
    n_observations: int = 3
    #: Run stage 4 (RandomForest cross-validation) as part of the pipeline.
    classify: bool = False
    #: Seeded chaos: stage 3 runs under rule-driven fault injection.
    fault_config: "FaultConfig | None" = None
    #: Observability: event log + spans + metrics for the whole run.
    obs_config: "ObsConfig | ObsSession | None" = None
    #: Execution knobs: backend and workers
    #: (:class:`repro.execution.ExecutionConfig`).  Fields left None defer
    #: to the ``REPRO_BACKEND`` / ``REPRO_WORKERS`` environment defaults.
    #: All backends produce byte-identical output on the same seed.
    execution: ExecutionConfig | None = None
    #: Lineage-hash memoization + persistent candidate recording (see
    #: :class:`repro.memo.MemoConfig`).  None defers to the ``REPRO_MEMO``
    #: environment default; excluded from equality/digests — caching is an
    #: operational knob, not part of what the run computes.
    memo_config: "MemoConfig | None" = field(default=None, compare=False)


@dataclass(frozen=True)
class StreamingConfig:
    """Everything one streaming run depends on, in one immutable record.

    Embeds a :class:`PipelineConfig` — the streamed workload is *the same*
    workload ``run_pipeline`` would execute offline on that config, which
    is what makes the byte-identity law testable.
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    #: Micro-batch interval on the simulated clock (seconds).
    batch_interval_s: float = 1.0
    #: Source arrival rate, rows (SPEs + cluster announcements) per second.
    arrival_rate: float = 4000.0
    #: PID rate limiting (Spark's spark.streaming.backpressure.enabled).
    backpressure: bool = True
    #: Batches between checkpoints (0 disables checkpointing).
    checkpoint_interval: int = 8
    checkpoint_path: str = "/stream/checkpoint.json"
    #: DFS prefix for per-batch inputs and ML outputs.
    batch_root: str = "/stream"
    #: Inject a driver crash after this batch completes (before its
    #: checkpoint); recovery replays from the last durable checkpoint.
    crash_at_batch: int | None = None
    #: Serving model (saved via :func:`repro.ml.persistence.save_model`);
    #: finalized pulses are scored in-stream when set.
    model_path: str | None = None
    #: Charges each batch its processing time on the simulated clock.
    cost_model: LinearCostModel = field(default_factory=LinearCostModel)
    #: Safety valve: abort if the stream hasn't drained by then.
    max_batches: int = 10_000

    def __post_init__(self) -> None:
        # A zero, negative or NaN rate or interval never drains the stream;
        # each would spin empty batches up to max_batches, or crash later.
        for name in ("batch_interval_s", "arrival_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.checkpoint_interval < 0:
            raise ValueError(
                "checkpoint_interval must be >= 0 (0 disables checkpointing), "
                f"got {self.checkpoint_interval!r}"
            )


def _pipeline_for(config: PipelineConfig) -> SinglePulsePipeline:
    return SinglePulsePipeline(
        survey=resolve_survey(config.survey),
        scheme=config.scheme,
        params=config.params,
        num_partitions=config.num_partitions,
        seed=config.seed,
        fault_config=config.fault_config,
        obs_config=config.obs_config,
        execution=config.execution,
        memo_config=config.memo_config,
    )


def run_pipeline(
    config: PipelineConfig, pulsars: Sequence[Pulsar] | None = None
) -> PipelineResult:
    """Execute the full Fig. 2 workflow described by ``config``.

    ``pulsars`` overrides the synthetic population; by default
    ``config.n_pulsars`` sources are synthesized from ``config.seed``.
    """
    pipeline = _pipeline_for(config)
    if pulsars is None:
        pulsars = synthesize_population(config.n_pulsars, seed=config.seed)
    return pipeline.run(
        list(pulsars),
        n_observations=config.n_observations,
        classify=config.classify,
    )


def run_streaming(
    config: StreamingConfig,
    pulsars: Sequence[Pulsar] | None = None,
    *,
    dfs: "DFSClient | None" = None,
    ctx: "SparkletContext | None" = None,
    model: object | None = None,
) -> StreamingResult:
    """Replay the configured workload through the micro-batch engine.

    Generates exactly the observations :func:`run_pipeline` would (same
    pipeline, same seed, same rng draws), then streams them: timestamped
    blocks at ``config.arrival_rate``, batch-interval jobs through
    Sparklet, watermark-finalized cross-batch clusters, PID backpressure,
    DFS checkpoints, optional crash/recovery, and in-stream scoring.  The
    concatenated output is byte-identical to the offline run's (compare
    via :meth:`StreamingResult.canonical_ml_text`).

    ``model`` (a trained learner) overrides ``config.model_path`` as the
    in-stream serving classifier.
    """
    from repro.streaming.engine import stream_observations

    session = ObsSession.from_config(config.pipeline.obs_config)
    pipe_config = dataclasses.replace(config.pipeline, obs_config=session)
    pipeline = _pipeline_for(pipe_config)
    if pulsars is None:
        pulsars = synthesize_population(
            pipe_config.n_pulsars, seed=pipe_config.seed
        )
    with session.tracer.span("streaming.generate"):
        observations = pipeline.generate(
            list(pulsars), pipe_config.n_observations
        )
    streaming_config = dataclasses.replace(config, pipeline=pipe_config)
    with session.tracer.span("streaming.run"):
        return stream_observations(
            observations, streaming_config,
            dfs=dfs, ctx=ctx, model=model, obs=session,
        )


@dataclass(frozen=True)
class TenantConfig:
    """One serving tenant: its streamed workload plus its fair-share terms.

    ``weight`` and ``min_share`` parametrize the tenant's
    :class:`~repro.sparklet.pools.PoolConfig` — the same fair-scheduler
    vocabulary Sparklet jobs use, applied here to micro-batches.
    """

    tenant_id: str
    streaming: StreamingConfig = field(default_factory=StreamingConfig)
    weight: float = 1.0
    min_share: float = 0.0

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if self.tenant_id == DEFAULT_POOL:
            raise ValueError(
                f"tenant_id {DEFAULT_POOL!r} is reserved for the default pool"
            )
        if "/" in self.tenant_id:
            raise ValueError("tenant_id must not contain '/' (it names DFS roots)")
        # The fair-share terms obey the rules of the pool they become.
        PoolConfig(self.tenant_id, weight=self.weight, min_share=self.min_share)


#: DFS prefix under which each serving tenant gets an isolated namespace.
SERVING_ROOT = "/serving"


@dataclass(frozen=True)
class ServingConfig:
    """Everything one multi-tenant serving run depends on.

    N tenant streams multiplexed on one driver, one Sparklet context and
    one simulated clock, scheduled by fair-share pools with admission
    control (see :mod:`repro.streaming.sessions`).  Each tenant's output is
    byte-identical (canonically) to its solo :func:`run_streaming` output.
    """

    tenants: tuple[TenantConfig, ...] = ()
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Observability for the whole fleet (one shared event log; per-tenant
    #: events carry ``tenant``/``pool`` fields).
    obs_config: "ObsConfig | ObsSession | None" = None
    #: Directory for per-tenant private JSONL event logs (None: shared only).
    tenant_trace_dir: str | None = None
    #: Execution knobs for the shared context (backend/workers);
    #: fields left None defer to the ``REPRO_*`` environment defaults.
    execution: ExecutionConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        ids = [t.tenant_id for t in self.tenants]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate tenant ids: {sorted(ids)}")


@dataclass
class ServingResult:
    """Everything one multi-tenant serving run produced."""

    #: Per-admitted-tenant streaming results, keyed by tenant id.
    tenants: dict[str, StreamingResult]
    #: Tenants turned away by admission control: id → reason.
    rejected: dict[str, str]
    #: Per-pool fair-share accounting (service seconds, shares, picks).
    pool_stats: dict[str, dict[str, float]]
    #: Micro-batches executed across the whole fleet.
    n_batches: int
    obs: "ObsSession | None" = None

    def canonical_ml_text(self, tenant_id: str) -> str:
        return self.tenants[tenant_id].canonical_ml_text()

    def shares(self) -> dict[str, float]:
        """Each tenant's fraction of driver service (default pool excluded)."""
        served = {
            name: s for name, s in self.pool_stats.items()
            if name != DEFAULT_POOL
        }
        total = sum(s["service_s"] for s in served.values())
        if total <= 0:
            return {name: 0.0 for name in served}
        return {name: s["service_s"] / total for name, s in served.items()}


def run_serving(config: ServingConfig) -> ServingResult:
    """Serve every tenant's stream concurrently on one shared driver.

    Builds one DFS, one Sparklet context and one
    :class:`~repro.streaming.serving.ModelCache`; gives each tenant its own
    engine, DFS namespace, observability view and memo namespace; registers
    the fleet on a :class:`~repro.streaming.sessions.SessionManager` and
    drains it under fair-share scheduling with admission control.

    The per-tenant identity law: for every admitted tenant,
    ``result.canonical_ml_text(tid)`` equals the canonical output of a solo
    :func:`run_streaming` on that tenant's :class:`StreamingConfig` — co-
    tenant contention moves batch boundaries, never finalized clusters.
    """
    import os

    from repro.memo.config import resolve_memo
    from repro.streaming.engine import MicroBatchEngine
    from repro.streaming.serving import ModelCache, StreamScorer
    from repro.streaming.sessions import SessionManager

    if not config.tenants:
        raise ValueError("run_serving needs at least one tenant")
    session = ObsSession.from_config(config.obs_config)
    cache = ModelCache()
    manager = SessionManager(admission=config.admission, obs=session)
    tenant_observations: dict[str, list] = {}
    with ExitStack() as stack:
        dfs, ctx = stack.enter_context(
            open_cluster(config.execution, session, app_name="serving")
        )
        for tenant in config.tenants:
            tid = tenant.tenant_id
            root = f"{SERVING_ROOT}/{tid}"
            scfg = dataclasses.replace(
                tenant.streaming, batch_root=root,
                checkpoint_path=f"{root}/checkpoint.json",
            )
            pipe = scfg.pipeline
            # Generate exactly the observations the tenant's solo run would:
            # same pipeline, same seed, same rng draws.
            pipeline = _pipeline_for(
                dataclasses.replace(pipe, obs_config=session)
            )
            pulsars = synthesize_population(pipe.n_pulsars, seed=pipe.seed)
            with session.tracer.span("serving.generate", tenant=tid):
                observations = pipeline.generate(
                    list(pulsars), pipe.n_observations
                )
            tenant_observations[tid] = observations
            scorer = None
            if scfg.model_path is not None:
                cache.load(tid, scfg.model_path)
                scorer = StreamScorer.from_cache(cache, tid)
            trace_path = (
                os.path.join(config.tenant_trace_dir, f"{tid}.jsonl")
                if config.tenant_trace_dir is not None else None
            )
            view = session.for_tenant(tid, path=trace_path)
            stack.callback(view.close)
            engine = MicroBatchEngine.for_observations(
                observations, scfg, dfs=dfs, ctx=ctx, scorer=scorer, obs=view,
            )
            # Namespaced so memo entries cannot cross tenants.
            memo = resolve_memo(pipe.memo_config, fault_config=pipe.fault_config,
                                namespace=tid)
            if memo is not None:
                stack.callback(memo.close)
            manager.add_session(tid, engine, weight=tenant.weight,
                                min_share=tenant.min_share, memo=memo)

        with session.tracer.span("serving.run"):
            manager.run()

        results: dict[str, StreamingResult] = {
            tid: info.engine.result(
                tenant_observations[tid], manager.memos.get(tid),
                kind="serving", provenance={"tenant": tid},
            )
            for tid, info in manager.sessions.items() if info.admitted
        }
        if session.enabled:
            session.registry.counter("serving.batches").inc(manager.n_batches)
            session.registry.counter("serving.tenants").inc(len(results))
        return ServingResult(
            tenants=results, rejected=manager.rejected(),
            pool_stats=manager.pool_stats(), n_batches=manager.n_batches,
            obs=session,
        )


def run_campaign(config):
    """Run a long simulated observing campaign (drift + online retraining).

    Thin facade over :func:`repro.campaign.runner.run_campaign` — takes a
    :class:`repro.campaign.runner.CampaignConfig` (also importable as
    ``repro.api.CampaignConfig``), returns its ``CampaignResult`` with the
    byte-deterministic campaign report.  Imported lazily so ``repro.api``
    does not pull the campaign subsystem in at module load.
    """
    from repro.campaign.runner import run_campaign as _run_campaign

    return _run_campaign(config)


def run_drapid(
    config: PipelineConfig,
    observations: list[Observation],
    *,
    dfs: "DFSClient | None" = None,
    ctx: "SparkletContext | None" = None,
    ml_output_path: str = "/ml/out",
    total_cores: int | None = None,
) -> "DRapidResult":
    """Run only the D-RAPID identification stage on given observations.

    Builds (or reuses) the DFS and Sparklet context, wiring both onto the
    config's observability session so one event log covers upload,
    execution and output.  ``total_cores`` switches to the paper's
    32-partitions-per-core rule instead of ``config.num_partitions``.
    """
    if not observations:
        raise ValueError("run_drapid needs at least one observation")
    survey = resolve_survey(config.survey)
    num_partitions = (config.num_partitions if total_cores is None
                      else paper_partitions(total_cores))
    result, _dfs = identify_observations(
        observations, survey=survey.name, params=config.params,
        num_partitions=num_partitions, seed=config.seed,
        fault_config=config.fault_config, memo_config=config.memo_config,
        execution=config.execution,
        obs=ObsSession.from_config(config.obs_config),
        dfs=dfs, ctx=ctx, ml_output_path=ml_output_path,
    )
    return result
