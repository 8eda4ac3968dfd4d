"""Declarative, seed-deterministic campaign scenarios.

A :class:`Scenario` is a timeline of :class:`PhaseConfig` regimes (RFI
storm seasons, sensitivity/gain steps) crossed with a set of
:class:`TenantTimeline` entries (which survey each tenant observes, when it
joins the shared driver).  :func:`compile_scenario` turns one into concrete
per-tenant observation lists plus the bookkeeping the campaign runner
needs: which phase every observation key belongs to, and the receiver-item
thresholds at which late tenants join.

Everything is derived from ``(scenario, seed)`` by pure arithmetic on
seeded generators — two compiles of the same pair are byte-identical,
which is what makes whole-campaign reports checksummable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.astro.population import synthesize_population
from repro.astro.rfi import RFIStormModel
from repro.astro.survey import Observation, SurveyConfig, generate_observation

__all__ = [
    "CompiledCampaign",
    "PhaseConfig",
    "Scenario",
    "TenantTimeline",
    "compile_scenario",
    "resolve_scenario",
    "scenario_names",
    "three_phase_scenario",
]


#: Observations each active tenant makes per phase.
N_OBSERVATIONS = 2
#: The workload of every campaign observation.
OBS_LENGTH_S = 12.0
N_NOISE_CLUSTERS = 40
N_RFI_BURSTS = 2
#: Receiver rate and batch cadence: ~150 rows per batch, so a phase spans
#: enough micro-batches for the drift windows to slide.
ARRIVAL_RATE = 600.0
BATCH_INTERVAL_S = 0.25


def _derive(seed: int, *parts: int) -> int:
    """Stable sub-seed derivation (FNV-style fold, no hashing randomness)."""
    h = int(seed) & 0x7FFFFFFF
    for p in parts:
        h = (h * 1000003 + int(p) + 1) & 0x7FFFFFFF
    return h


@dataclass(frozen=True)
class PhaseConfig:
    """One regime of the campaign timeline.

    Every tenant active during the phase observes ``N_OBSERVATIONS``
    pointings under the phase's regime: ``gain`` scales astrophysical SNR
    (a sensitivity/calibration step), ``storm`` overlays time-correlated
    bursty interference (see :class:`~repro.astro.rfi.RFIStormModel`).
    """

    name: str
    gain: float = 1.0
    storm: RFIStormModel | None = None

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise ValueError("gain must be positive")


@dataclass(frozen=True)
class TenantTimeline:
    """One tenant's place in the campaign: survey, join point, sensitivity.

    ``joins_at_phase`` indexes into the scenario's phases — the tenant's
    stream contains observations for that phase onward, and its session is
    added to the shared driver when the campaign reaches the phase.
    ``gain`` is a persistent per-tenant sensitivity factor (an uncalibrated
    newcomer), multiplied with each phase's gain.
    """

    tenant_id: str
    survey: str = "GBT350Drift"
    joins_at_phase: int = 0
    n_pulsars: int = 3
    gain: float = 1.0

    def survey_config(self) -> SurveyConfig:
        return SurveyConfig.preset(self.survey)


@dataclass(frozen=True)
class Scenario:
    """A full campaign timeline: phases × tenants."""

    name: str
    phases: tuple[PhaseConfig, ...]
    tenants: tuple[TenantTimeline, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("scenario needs at least one phase")
        if not self.tenants:
            raise ValueError("scenario needs at least one tenant")
        ids = [t.tenant_id for t in self.tenants]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate tenant ids: {sorted(ids)}")
        if self.tenants[0].joins_at_phase != 0:
            raise ValueError("the first (anchor) tenant must join at phase 0")
        for t in self.tenants:
            if not 0 <= t.joins_at_phase < len(self.phases):
                raise ValueError(
                    f"tenant {t.tenant_id!r} joins at phase "
                    f"{t.joins_at_phase}, outside the timeline"
                )


@dataclass
class CompiledCampaign:
    """A scenario made concrete for one seed (see :func:`compile_scenario`)."""

    scenario: Scenario
    seed: int
    #: Per-tenant observation list, in stream order (phase-major).
    observations: dict[str, list[Observation]] = field(default_factory=dict)
    #: Observation key string → phase index (keys are globally unique).
    phase_of_key: dict[str, int] = field(default_factory=dict)
    #: Observation key string → tenant id.
    tenant_of_key: dict[str, str] = field(default_factory=dict)
    #: Anchor-tenant receiver-item counts marking each phase's start:
    #: ``anchor_items_before_phase[p]`` items of the anchor stream precede
    #: phase ``p`` — the join trigger for tenants with ``joins_at_phase=p``.
    anchor_items_before_phase: dict[int, int] = field(default_factory=dict)

    @property
    def anchor_tenant(self) -> str:
        return self.scenario.tenants[0].tenant_id

    def phases_of(self, tenant_id: str) -> list[int]:
        """Phase indices the tenant is active in, in order."""
        timeline = next(
            t for t in self.scenario.tenants if t.tenant_id == tenant_id
        )
        return list(range(timeline.joins_at_phase, len(self.scenario.phases)))


def compile_scenario(scenario: Scenario, seed: int) -> CompiledCampaign:
    """Generate every tenant's observations for one seeded campaign run.

    Sub-seeds fold the tenant index, phase index and observation index into
    the campaign seed, so adding a tenant or phase never perturbs the
    others' draws.  Observation keys are globally unique (beam = tenant
    index, MJD strides per phase/observation) so the runner can attribute
    any pulse back to its (tenant, phase).
    """
    compiled = CompiledCampaign(scenario=scenario, seed=seed)
    for t_idx, timeline in enumerate(scenario.tenants):
        survey = timeline.survey_config()
        pulsars = synthesize_population(
            timeline.n_pulsars,
            max_dm=survey.max_dm * 0.8,
            seed=_derive(seed, t_idx),
        )
        obs_list: list[Observation] = []
        for p_idx in range(timeline.joins_at_phase, len(scenario.phases)):
            phase = scenario.phases[p_idx]
            for o_idx in range(N_OBSERVATIONS):
                obs = generate_observation(
                    survey,
                    pulsars,
                    mjd=55000.0 + p_idx * 100.0 + o_idx,
                    beam=t_idx,
                    n_noise_clusters=N_NOISE_CLUSTERS,
                    n_rfi_bursts=N_RFI_BURSTS,
                    seed=_derive(seed, t_idx, p_idx, o_idx),
                    obs_length_s=OBS_LENGTH_S,
                    gain=phase.gain * timeline.gain,
                    storm=phase.storm,
                )
                key = obs.key.to_key()
                if key in compiled.phase_of_key:
                    raise ValueError(f"observation key collision: {key}")
                compiled.phase_of_key[key] = p_idx
                compiled.tenant_of_key[key] = timeline.tenant_id
                obs_list.append(obs)
        compiled.observations[timeline.tenant_id] = obs_list

    # Receiver-item thresholds on the anchor stream, one per phase start.
    from repro.streaming.receiver import build_stream

    anchor = scenario.tenants[0]
    anchor_obs = compiled.observations[anchor.tenant_id]
    n_before = 0
    for p_idx in range(len(scenario.phases)):
        compiled.anchor_items_before_phase[p_idx] = n_before
        n_before = len(build_stream(anchor_obs[:(p_idx + 1) * N_OBSERVATIONS]))
    return compiled


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------
def three_phase_scenario() -> Scenario:
    """The canonical gate scenario: baseline → RFI storm season → expansion.

    Phase 0 is a quiet GBT350Drift baseline.  Phase 1 turns on a heavy
    storm season (Markov chain biased toward storms, 10× burst rate, noise
    floor suppressing co-temporal SNR to 55%) — the regime Pang et al.
    identify as the classifier's first failure mode.  Phase 2 keeps a
    milder storm tail while a CHIME-like tenant joins the shared driver at
    reduced gain (an uncalibrated newcomer).
    """
    heavy = RFIStormModel(
        p_on=0.45, p_off=0.10, interval_s=3.0,
        quiet_rate_hz=0.3, storm_rate_multiplier=8.0,
        snr_suppression=0.55, start_in_storm=True,
    )
    mild = RFIStormModel(
        p_on=0.25, p_off=0.30, interval_s=3.0,
        quiet_rate_hz=0.2, storm_rate_multiplier=5.0,
        snr_suppression=0.65,
    )
    return Scenario(
        name="three-phase",
        phases=(
            PhaseConfig("baseline"),
            PhaseConfig("storm-season", storm=heavy),
            PhaseConfig("expansion", storm=mild),
        ),
        tenants=(
            TenantTimeline("gbt", survey="GBT350Drift", n_pulsars=3),
            TenantTimeline("chime", survey="CHIME", joins_at_phase=2,
                           n_pulsars=3, gain=0.5),
        ),
    )


_SCENARIOS = {
    "three-phase": three_phase_scenario,
}


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def resolve_scenario(scenario: "str | Scenario") -> Scenario:
    """Map a scenario name to its built-in builder, or pass one through."""
    if isinstance(scenario, Scenario):
        return scenario
    try:
        return _SCENARIOS[scenario]()
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; expected one of "
            f"{scenario_names()} or a Scenario"
        ) from None
