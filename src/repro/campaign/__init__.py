"""Long-horizon observing campaigns with regime changes and self-healing.

The paper's evaluation assumes two surveys and stationary noise.  Real
single-pulse pipelines (the GSP/CRAFTS commensal systems of PAPERS.md) run
for weeks against a drifting sky: RFI arrives in storms, surveys join and
leave the shared cluster, sensitivity steps after recalibration — and
classifier quality is the first casualty when the negative population
shifts (Pang et al.).  This package drives the existing serving tier
through exactly those regimes:

- :mod:`repro.campaign.scenarios` — declarative, seed-deterministic
  scenario timelines (phases with RFI storms / gain steps, tenants with
  join schedules) compiled into per-tenant observation streams;
- :mod:`repro.campaign.drift` — windowed PSI/KS monitors over the serving
  score distribution plus the "many objects in a short interval ⇒ suspect
  RFI" cluster-rate alarm;
- :mod:`repro.campaign.retrain` — the retraining controller: on sustained
  drift it harvests recent labeled candidates from the memo candidate
  database, fits a fresh :class:`~repro.ml.distributed.DistributedRandomForest`
  on the shared Sparklet cluster in a low-weight pool, and hot-swaps it
  through the :class:`~repro.streaming.serving.ModelCache` at a batch
  boundary;
- :mod:`repro.campaign.runner` — ties it together into
  :func:`run_campaign`, producing a byte-deterministic campaign report.
"""

from repro.campaign.drift import DriftMonitor, DriftSignal
from repro.campaign.retrain import RetrainConfig, RetrainController
from repro.campaign.scenarios import (
    CompiledCampaign,
    PhaseConfig,
    Scenario,
    TenantTimeline,
    compile_scenario,
    resolve_scenario,
    scenario_names,
    three_phase_scenario,
)
from repro.campaign.runner import CampaignConfig, CampaignResult, run_campaign

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CompiledCampaign",
    "DriftMonitor",
    "DriftSignal",
    "PhaseConfig",
    "RetrainConfig",
    "RetrainController",
    "Scenario",
    "TenantTimeline",
    "compile_scenario",
    "resolve_scenario",
    "run_campaign",
    "scenario_names",
    "three_phase_scenario",
]
