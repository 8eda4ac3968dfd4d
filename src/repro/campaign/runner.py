"""The campaign loop: scenario → serving fleet → drift → retrain → report.

:func:`run_campaign` compiles a :class:`~repro.campaign.scenarios.Scenario`
for one seed, trains a baseline classifier offline (the paper's stage 4),
then drives the multi-tenant serving tier batch by batch on the shared
simulated clock:

- tenants join mid-campaign when the anchor tenant's receiver crosses their
  phase threshold (a survey joining the commensal cluster);
- every completed batch's finalized pulses are read back from the DFS,
  scored, appended to the shared candidate database, and fed to the
  tenant's :class:`~repro.campaign.drift.DriftMonitor`;
- sustained drift hands control to the
  :class:`~repro.campaign.retrain.RetrainController`, which harvests the
  candidate DB, fits a replacement forest on the shared cluster in its
  low-weight pool, and hot-swaps it through the
  :class:`~repro.streaming.serving.ModelCache` — visible to every tenant at
  its next batch boundary;
- the result is a JSON-able campaign report (per-phase recall/precision on
  injected pulses, the drift timeline, swap and retrain points) that is
  byte-identical across repeated runs and across execution backends for the
  same seed — :meth:`CampaignResult.checksum` is the regression handle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.campaign.drift import DriftMonitor
from repro.campaign.retrain import (
    MAX_DEPTH,
    POOL,
    POOL_WEIGHT,
    RetrainConfig,
    RetrainController,
)
from repro.campaign.scenarios import (
    ARRIVAL_RATE,
    BATCH_INTERVAL_S,
    N_NOISE_CLUSTERS,
    N_RFI_BURSTS,
    OBS_LENGTH_S,
    CompiledCampaign,
    Scenario,
    _derive,
    compile_scenario,
    resolve_scenario,
)
from repro.execution import ExecutionConfig
from repro.obs.events import CAMPAIGN_PHASE, DRIFT_DETECTED
from repro.sparklet.pools import PoolConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import ObsConfig, ObsSession

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign"]

#: Trees in the offline baseline classifier.
INITIAL_N_TREES = 16
#: Offline observations the baseline classifier trains on.
N_TRAINING_OBSERVATIONS = 2
#: Shared ModelCache key every tenant's scorer binds to.
MODEL_KEY = "campaign"
#: DFS prefix for per-tenant batch namespaces.
CAMPAIGN_ROOT = "/campaign"
#: Safety valve: abort if the fleet hasn't drained by then.
MAX_BATCHES = 20_000


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign run depends on, in one immutable record."""

    scenario: "str | Scenario" = "three-phase"
    seed: int = 0
    retrain: RetrainConfig = field(default_factory=RetrainConfig)
    #: Execution knobs for the shared context (backend/workers).
    execution: ExecutionConfig | None = None
    obs_config: "ObsConfig | ObsSession | None" = None


@dataclass
class CampaignResult:
    """Everything one campaign produced; ``report`` is the canonical part."""

    config: CampaignConfig
    #: JSON-able, deterministically ordered campaign report.
    report: dict[str, Any]
    obs: "ObsSession | None" = None

    @property
    def n_batches(self) -> int:
        return self.report["n_batches"]

    @property
    def drift_timeline(self) -> list[dict[str, Any]]:
        return self.report["drift_timeline"]

    @property
    def retrains(self) -> list[dict[str, Any]]:
        return self.report["retrains"]

    @property
    def swaps(self) -> list[dict[str, Any]]:
        return self.report["swaps"]

    def to_json(self) -> str:
        """The canonical report encoding (sorted keys, no whitespace)."""
        return json.dumps(self.report, sort_keys=True, separators=(",", ":"))

    def checksum(self) -> str:
        """SHA-256 of the canonical encoding — the determinism handle."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def phase_metrics(self, tenant_id: str, phase: int) -> dict[str, Any]:
        return self.report["phases"][phase]["tenants"][tenant_id]


def _metrics(rows: list[tuple[int, int, int]]) -> dict[str, Any]:
    """Recall/precision over (y_true, y_pred, model_version) triples."""
    n = len(rows)
    n_true = sum(t for t, _, _ in rows)
    tp = sum(1 for t, p, _ in rows if t and p)
    fp = sum(1 for t, p, _ in rows if p and not t)
    out: dict[str, Any] = {
        "n_pulses": n,
        "n_true": n_true,
        "n_predicted": tp + fp,
        "recall": round(tp / n_true, 6) if n_true else None,
        "precision": round(tp / (tp + fp), 6) if tp + fp else None,
    }
    # The same numbers restricted to the newest model version serving in
    # this phase — what the hot-swap gate measures (pre-swap batches in a
    # drifted phase would otherwise dilute the recovered recall).
    if rows:
        last_ver = max(v for _, _, v in rows)
        tail = [(t, p, v) for t, p, v in rows if v == last_ver]
        t_true = sum(t for t, _, _ in tail)
        t_tp = sum(1 for t, p, _ in tail if t and p)
        out["final_model_version"] = last_ver
        out["n_true_final_model"] = t_true
        out["recall_final_model"] = (
            round(t_tp / t_true, 6) if t_true else None
        )
    return out


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run one seeded observing campaign end to end (see module docstring)."""
    from repro.api import PipelineConfig, StreamingConfig, run_drapid
    from repro.astro.survey import generate_observation
    from repro.cluster import open_cluster
    from repro.memo.candidates import _candidate_rows
    from repro.memo.config import MemoConfig, resolve_memo
    from repro.ml.distributed import DistributedRandomForest
    from repro.obs.session import ObsSession
    from repro.streaming.engine import MicroBatchEngine
    from repro.streaming.serving import ModelCache, StreamScorer
    from repro.streaming.sessions import AdmissionConfig, SessionManager

    scenario = resolve_scenario(config.scenario)
    seed = config.seed
    compiled: CompiledCampaign = compile_scenario(scenario, seed)
    timelines = {t.tenant_id: t for t in scenario.tenants}

    session = ObsSession.from_config(config.obs_config)
    cache = ModelCache()
    manager = SessionManager(admission=AdmissionConfig(mode="off"),
                             obs=session)
    scratch = tempfile.mkdtemp(prefix="repro-campaign-")
    memo = resolve_memo(MemoConfig(enabled=True, dir=scratch))
    with ExitStack() as stack:
        stack.callback(shutil.rmtree, scratch, ignore_errors=True)
        dfs, ctx = stack.enter_context(
            open_cluster(config.execution, session, app_name="campaign")
        )
        stack.callback(memo.close)
        # -- baseline classifier: offline training, published as version 1 --
        anchor = scenario.tenants[0]
        anchor_survey = anchor.survey_config()
        from repro.astro.population import synthesize_population

        train_pulsars = synthesize_population(
            anchor.n_pulsars, max_dm=anchor_survey.max_dm * 0.8,
            seed=_derive(seed, 0),
        )
        train_obs = [
            generate_observation(
                anchor_survey, train_pulsars, mjd=54000.0 + i, beam=0,
                n_noise_clusters=N_NOISE_CLUSTERS,
                n_rfi_bursts=N_RFI_BURSTS,
                seed=_derive(seed, 555, i),
                obs_length_s=OBS_LENGTH_S,
            )
            for i in range(N_TRAINING_OBSERVATIONS)
        ]
        # Trains on the shared context but a DFS of its own (run_drapid
        # builds one), so the upload cannot collide with a tenant namespace.
        with session.tracer.span("campaign.train_baseline"):
            train_result = run_drapid(
                PipelineConfig(survey=anchor_survey, seed=seed,
                               obs_config=session,
                               memo_config=MemoConfig(enabled=False)),
                train_obs, ctx=ctx,
                ml_output_path=f"{CAMPAIGN_ROOT}-train/ml",
            )
        X = train_result.pulse_batch.features
        y = np.asarray(train_result.pulse_batch.is_pulsar, dtype=int)
        if y.min() == y.max():
            raise RuntimeError(
                "baseline training set is single-class; enlarge "
                "N_TRAINING_OBSERVATIONS or the scenario's noise workload"
            )
        baseline = DistributedRandomForest(
            ctx=ctx, n_trees=INITIAL_N_TREES, max_depth=MAX_DEPTH,
            seed=_derive(seed, 777),
        ).fit(X, y)
        cache.publish(MODEL_KEY, baseline)

        retrain_cfg = dataclasses.replace(
            config.retrain, seed=_derive(seed, 888, config.retrain.seed)
        )
        controller = RetrainController(
            retrain_cfg, ctx=ctx, cache=cache, model_key=MODEL_KEY,
            memo=memo, obs=session,
        )
        manager.pools.register(PoolConfig(POOL, weight=POOL_WEIGHT))
        run_id = memo.db.insert_run(
            kind="campaign", survey=scenario.name, seed=seed,
            config_digest="campaign", config_json="{}",
            lineage_hash="campaign", n_pulses=0,
        )

        # -- the serving fleet (tenants join as the campaign reaches them) --
        engines: dict[str, MicroBatchEngine] = {}
        monitors: dict[str, DriftMonitor] = {}
        last_version: dict[str, int] = {}

        def join(tenant_id: str) -> None:
            timeline = timelines[tenant_id]
            observations = compiled.observations[tenant_id]
            root = f"{CAMPAIGN_ROOT}/{tenant_id}"
            scfg = StreamingConfig(
                pipeline=PipelineConfig(survey=timeline.survey, seed=seed),
                batch_interval_s=BATCH_INTERVAL_S,
                arrival_rate=ARRIVAL_RATE,
                batch_root=root, checkpoint_path=f"{root}/checkpoint.json",
            )
            view = session.for_tenant(tenant_id)
            stack.callback(view.close)
            engine = MicroBatchEngine.for_observations(
                observations, scfg, dfs=dfs, ctx=ctx,
                scorer=StreamScorer.from_cache(cache, MODEL_KEY),
                obs=view,
            )
            manager.add_session(tenant_id, engine)
            engines[tenant_id] = engine
            monitors[tenant_id] = DriftMonitor()
            last_version[tenant_id] = engine.scorer.version

        pending = [t.tenant_id for t in scenario.tenants
                   if t.joins_at_phase > 0]
        for timeline in scenario.tenants:
            if timeline.joins_at_phase == 0:
                join(timeline.tenant_id)

        anchor_engine = engines[compiled.anchor_tenant]
        current_phase = 0
        phase_started_at: dict[int, int] = {0: 0}
        session.emit(CAMPAIGN_PHASE, phase=0, name=scenario.phases[0].name,
                     global_batch=0)
        records: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
        drift_timeline: list[dict[str, Any]] = []
        swaps: list[dict[str, Any]] = []
        retrains: list[dict[str, Any]] = []

        with session.tracer.span("campaign.run"):
            while True:
                stats = manager.run_next_batch()
                if stats is None:
                    break
                if manager.n_batches > MAX_BATCHES:
                    raise RuntimeError(
                        f"campaign exceeded max_batches={MAX_BATCHES}"
                    )
                gb = manager.n_batches
                tid = manager.last_tenant
                engine = engines[tid]

                # Phase advance: the anchor receiver crossing a threshold
                # IS the regime change; late tenants join here.
                cursor = anchor_engine.receiver.cursor
                for p in range(current_phase + 1, len(scenario.phases)):
                    if cursor >= compiled.anchor_items_before_phase[p]:
                        current_phase = p
                        phase_started_at[p] = gb
                        session.emit(CAMPAIGN_PHASE, phase=p,
                                     name=scenario.phases[p].name,
                                     global_batch=gb)
                        for tenant_id in list(pending):
                            if timelines[tenant_id].joins_at_phase == p:
                                join(tenant_id)
                                pending.remove(tenant_id)

                # Hot-swap visibility: the engine re-pinned at this batch's
                # boundary; rebase the monitor before scoring under the new
                # distribution.
                version = engine.scorer.version
                if version != last_version[tid]:
                    swaps.append({
                        "global_batch": gb, "tenant": tid,
                        "batch_id": stats.batch_id,
                        "old_version": last_version[tid],
                        "version": version,
                    })
                    monitors[tid].rebase()
                    last_version[tid] = version

                # Read the batch's finalized pulses back from the DFS,
                # score, archive, attribute to (tenant, phase).
                probs: list[float] = []
                if stats.n_clusters_finalized > 0:
                    batch = engine.read_batch(stats.batch_id)
                    if len(batch):
                        preds = engine.scorer.score(batch)
                        model = engine.scorer.model
                        if hasattr(model, "predict_proba"):
                            proba = np.asarray(
                                model.predict_proba(batch.features)
                            )
                            probs = (proba[:, 1] if proba.shape[1] > 1
                                     else np.zeros(len(batch))).tolist()
                        else:
                            probs = [float(p) for p in preds]
                        memo.db.insert_candidates(
                            run_id, _candidate_rows(batch)
                        )
                        truth = np.asarray(batch.is_pulsar, dtype=int)
                        keys = batch.observation_key.tolist()
                        for i in range(len(batch)):
                            phase = compiled.phase_of_key[keys[i]]
                            records.setdefault((tid, phase), []).append(
                                (int(truth[i]), int(preds[i]), version)
                            )

                # Drift detection and (maybe) the retrain response.
                signal = monitors[tid].update(
                    stats.batch_id, probs, stats.n_clusters_finalized
                )
                if signal.drifted:
                    session.emit(
                        DRIFT_DETECTED, batch_id=stats.batch_id, tenant=tid,
                        psi=signal.psi, ks=signal.ks,
                        rate_ratio=signal.rate_ratio,
                        reasons=list(signal.reasons), global_batch=gb,
                        phase=current_phase,
                    )
                    drift_timeline.append({
                        "global_batch": gb, "batch_id": stats.batch_id,
                        "tenant": tid, "phase": current_phase,
                        "psi": signal.psi, "ks": signal.ks,
                        "rate_ratio": signal.rate_ratio,
                        "reasons": list(signal.reasons),
                    })
                    event = controller.on_drift(gb, tid)
                    if event is not None:
                        # Training occupies the shared driver for its
                        # (simulated) duration, billed to the retrain pool.
                        manager.t_free += event.cost_s
                        manager.pools.charge(POOL, event.cost_s)
                        retrains.append({
                            "global_batch": gb, "tenant": tid,
                            "version": event.version,
                            "n_samples": event.n_samples,
                            "n_positive": event.n_positive,
                            "cost_s": round(event.cost_s, 6),
                        })

        # -- the report ------------------------------------------------------
        phases_report = []
        for p, phase in enumerate(scenario.phases):
            tenants_report = {
                tenant_id: _metrics(records.get((tenant_id, p), []))
                for tenant_id in sorted(engines)
                if p >= timelines[tenant_id].joins_at_phase
            }
            phases_report.append({
                "index": p,
                "name": phase.name,
                "started_at_global_batch": phase_started_at.get(p),
                "storm": phase.storm is not None,
                "gain": phase.gain,
                "tenants": tenants_report,
            })
        report: dict[str, Any] = {
            "scenario": scenario.name,
            "seed": seed,
            "retrain_enabled": retrain_cfg.enabled,
            "n_batches": manager.n_batches,
            "n_tenants": len(engines),
            "n_drift_detections": len(drift_timeline),
            "n_retrains": len(retrains),
            "n_swaps": len(swaps),
            "phases": phases_report,
            "drift_timeline": drift_timeline,
            "swaps": swaps,
            "retrains": retrains,
        }
        if session.enabled:
            session.registry.counter("campaign.batches").inc(manager.n_batches)
            session.registry.counter("campaign.drift_detections").inc(
                len(drift_timeline)
            )
            session.registry.counter("campaign.retrains").inc(len(retrains))
        return CampaignResult(config=config, report=report,
                              obs=session if session.enabled else None)
