"""Multi-tenant serving tier: fair-share pools, admission, identity law.

The governing invariant: for every admitted tenant, the canonical ML
output of a concurrent ``run_serving`` fleet equals that tenant's solo
``run_streaming`` output — co-tenant contention moves batch boundaries and
PID inputs, never finalized clusters.  Tested directly, across backends,
under a hypothesis sweep, under chaos fault rules, and under admission
degradation (rate caps are output-safe by the same argument).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    AdmissionConfig,
    PipelineConfig,
    ServingConfig,
    StreamingConfig,
    TenantConfig,
    run_serving,
    run_streaming,
)
from repro.execution import ExecutionConfig
from repro.memo.config import MemoConfig
from repro.obs import ObsConfig
from repro.obs.events import (
    MODEL_SWAPPED,
    SESSION_ADMITTED,
    SESSION_DEGRADED,
    SESSION_REJECTED,
)
from repro.sparklet.faults import (
    EXECUTOR_LOSS,
    TASK_CRASH,
    FailureRule,
    FaultConfig,
)
from repro.streaming import LinearCostModel, weighted_fair_shares
from repro.streaming.sessions import SessionManager


def _scfg(seed: int, *, arrival_rate: float = 2400.0,
          batch_interval_s: float = 0.5, **kw) -> StreamingConfig:
    return StreamingConfig(
        pipeline=PipelineConfig(n_pulsars=3, n_observations=1, seed=seed),
        arrival_rate=arrival_rate, batch_interval_s=batch_interval_s,
        checkpoint_interval=4, **kw,
    )


_SOLO_CACHE: dict = {}


def _solo_text(scfg: StreamingConfig) -> str:
    if scfg not in _SOLO_CACHE:
        _SOLO_CACHE[scfg] = run_streaming(scfg).canonical_ml_text()
    return _SOLO_CACHE[scfg]


# -- the identity law ---------------------------------------------------------

class TestServingIdentity:
    def test_two_tenants_match_their_solo_runs(self):
        cfgs = {"alice": _scfg(1), "bob": _scfg(2, arrival_rate=900.0)}
        result = run_serving(ServingConfig(tenants=(
            TenantConfig("alice", cfgs["alice"], weight=2.0),
            TenantConfig("bob", cfgs["bob"]),
        )))
        assert sorted(result.tenants) == ["alice", "bob"]
        assert not result.rejected
        for tid, scfg in cfgs.items():
            assert result.canonical_ml_text(tid) == _solo_text(scfg)
            assert result.tenants[tid].n_pulses > 0

    def test_contention_shows_up_as_scheduling_delay(self):
        """Co-tenants on one saturated driver see nonzero scheduling delay
        (the solo runs see none at this rate), yet output is unchanged."""
        slow = LinearCostModel(rows_per_s=2000.0, fixed_s=0.05)
        cfgs = [_scfg(s, arrival_rate=2000.0, cost_model=slow)
                for s in (1, 2, 3)]
        result = run_serving(ServingConfig(
            tenants=tuple(TenantConfig(f"t{i}", c) for i, c in enumerate(cfgs)),
            admission=AdmissionConfig(mode="off"),
        ))
        delays = [b.scheduling_delay_s
                  for res in result.tenants.values() for b in res.batches]
        assert max(delays) > 0.0
        for i, scfg in enumerate(cfgs):
            assert result.canonical_ml_text(f"t{i}") == _solo_text(scfg)

    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_identity_across_backends(self, backend):
        cfgs = {"a": _scfg(5), "b": _scfg(6)}
        result = run_serving(ServingConfig(
            tenants=tuple(TenantConfig(t, c) for t, c in cfgs.items()),
            execution=ExecutionConfig(backend=backend, num_workers=2),
        ))
        for tid, scfg in cfgs.items():
            assert result.canonical_ml_text(tid) == _solo_text(scfg)

    def test_identity_under_chaos_fault_rules(self):
        """Per-tenant fault injection on the shared context: retries and
        recomputation fire, output is still the solo output."""
        fc = FaultConfig(seed=7, rules=(
            FailureRule(TASK_CRASH, probability=0.2, max_fires=3),
            FailureRule(EXECUTOR_LOSS, probability=0.1, max_fires=1),
        ))
        chaotic = StreamingConfig(
            pipeline=PipelineConfig(n_pulsars=3, n_observations=1, seed=3,
                                    fault_config=fc),
            arrival_rate=2400.0, batch_interval_s=0.5,
        )
        calm = _scfg(4)
        result = run_serving(ServingConfig(tenants=(
            TenantConfig("chaotic", chaotic),
            TenantConfig("calm", calm),
        )))
        assert result.canonical_ml_text("chaotic") == _solo_text(chaotic)
        assert result.canonical_ml_text("calm") == _solo_text(calm)


class TestServingIdentitySweep:
    """Hypothesis sweep: the identity law across (seeds, rates, weights)."""

    def test_sweep(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @settings(max_examples=5, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(
            seed_a=st.integers(min_value=0, max_value=2),
            seed_b=st.integers(min_value=3, max_value=5),
            rate=st.sampled_from([600.0, 1200.0, 2400.0]),
            weight=st.sampled_from([0.5, 1.0, 3.0]),
        )
        def check(seed_a, seed_b, rate, weight):
            ca, cb = _scfg(seed_a, arrival_rate=rate), _scfg(seed_b)
            result = run_serving(ServingConfig(tenants=(
                TenantConfig("a", ca, weight=weight),
                TenantConfig("b", cb),
            )))
            assert result.canonical_ml_text("a") == _solo_text(ca)
            assert result.canonical_ml_text("b") == _solo_text(cb)

        check()


# -- fair-share scheduling ----------------------------------------------------

class TestFairness:
    def test_weighted_service_shares_under_saturation(self):
        """While both tenants are backlogged, accumulated driver service
        tracks the 2:1 pool weights (within a generous tolerance)."""
        slow = LinearCostModel(rows_per_s=1000.0, fixed_s=0.05)
        result = run_serving(ServingConfig(
            tenants=(
                TenantConfig("heavy", _scfg(1, arrival_rate=2000.0,
                                            cost_model=slow), weight=2.0),
                TenantConfig("light", _scfg(1, arrival_rate=2000.0,
                                            cost_model=slow), weight=1.0),
            ),
            admission=AdmissionConfig(mode="off"),
        ))
        # Same workload, same cost model: total service is equal once both
        # drain, so fairness shows in *when* service was delivered — the
        # heavier tenant must finish its stream earlier.
        heavy_done = max(b.completed_s for b in result.tenants["heavy"].batches)
        light_done = max(b.completed_s for b in result.tenants["light"].batches)
        assert heavy_done < light_done
        assert not result.rejected

    def test_no_tenant_starves_under_overload(self):
        slow = LinearCostModel(rows_per_s=800.0, fixed_s=0.02)
        tenants = tuple(
            TenantConfig(f"t{i}", _scfg(i, arrival_rate=1600.0,
                                        cost_model=slow))
            for i in range(3)
        )
        result = run_serving(ServingConfig(
            tenants=tenants, admission=AdmissionConfig(mode="off"),
        ))
        for i in range(3):
            res = result.tenants[f"t{i}"]
            assert res.n_batches > 0
            assert res.n_pulses > 0  # every stream drained to completion

    def test_weighted_fair_shares_water_filling(self):
        shares = weighted_fair_shares(
            demands={"a": 100.0, "b": 1000.0, "c": 1000.0},
            weights={"a": 1.0, "b": 2.0, "c": 1.0},
            capacity=1000.0,
        )
        assert shares["a"] == 100.0          # under its share: keeps demand
        assert shares["b"] == pytest.approx(600.0)
        assert shares["c"] == pytest.approx(300.0)
        assert sum(shares.values()) == pytest.approx(1000.0)


# -- admission control --------------------------------------------------------

class TestAdmission:
    def test_reject_mode_turns_away_overflow_tenants(self):
        session = run_serving(ServingConfig(
            tenants=(
                TenantConfig("first", _scfg(1, arrival_rate=600.0)),
                TenantConfig("second", _scfg(2, arrival_rate=600.0)),
                TenantConfig("third", _scfg(3, arrival_rate=600.0)),
            ),
            admission=AdmissionConfig(mode="reject",
                                      capacity_rows_per_s=1000.0),
        ))
        assert sorted(session.tenants) == ["first"]
        assert sorted(session.rejected) == ["second", "third"]
        for reason in session.rejected.values():
            assert "capacity" in reason
        # The admitted tenant is untouched by its rejected neighbours.
        assert (session.canonical_ml_text("first")
                == _solo_text(_scfg(1, arrival_rate=600.0)))

    def test_degrade_mode_caps_rates_and_preserves_output(self):
        obs = ObsConfig(enabled=True)
        scfgs = {"a": _scfg(1, arrival_rate=800.0),
                 "b": _scfg(2, arrival_rate=800.0)}
        result = run_serving(ServingConfig(
            tenants=tuple(TenantConfig(t, c) for t, c in scfgs.items()),
            admission=AdmissionConfig(mode="degrade",
                                      capacity_rows_per_s=1000.0),
            obs_config=obs,
        ))
        degraded = [e for e in result.obs.events()
                    if e["type"] == SESSION_DEGRADED]
        assert {e["tenant"] for e in degraded} == {"a", "b"}
        assert all(e["rate_cap"] == pytest.approx(500.0) for e in degraded)
        for res in result.tenants.values():
            assert all(b.rate_limit <= 500.0 + 1e-9 for b in res.batches)
        # Rate caps change block cutting, never canonical output.
        for tid, scfg in scfgs.items():
            assert result.canonical_ml_text(tid) == _solo_text(scfg)

    def test_admitted_sessions_emit_events(self):
        obs = ObsConfig(enabled=True)
        result = run_serving(ServingConfig(
            tenants=(TenantConfig("solo", _scfg(1)),), obs_config=obs,
        ))
        admitted = [e for e in result.obs.events()
                    if e["type"] == SESSION_ADMITTED]
        assert [e["tenant"] for e in admitted] == ["solo"]
        assert not [e for e in result.obs.events()
                    if e["type"] == SESSION_REJECTED]

    def test_admission_config_validation(self):
        with pytest.raises(ValueError, match="mode"):
            AdmissionConfig(mode="panic")
        with pytest.raises(ValueError, match="capacity"):
            AdmissionConfig(capacity_rows_per_s=-1.0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 0.0])
    def test_non_finite_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacity_rows_per_s"):
            AdmissionConfig(capacity_rows_per_s=capacity)


# -- config validation --------------------------------------------------------

class TestServingConfig:
    def test_duplicate_tenant_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ServingConfig(tenants=(
                TenantConfig("x", _scfg(1)), TenantConfig("x", _scfg(2)),
            ))

    def test_reserved_and_invalid_tenant_ids(self):
        with pytest.raises(ValueError, match="reserved"):
            TenantConfig("default", _scfg(1))
        with pytest.raises(ValueError, match="non-empty"):
            TenantConfig("", _scfg(1))
        with pytest.raises(ValueError, match="/"):
            TenantConfig("a/b", _scfg(1))

    @pytest.mark.parametrize("field, value", [
        ("weight", float("nan")),
        ("weight", 0.0),
    ])
    def test_non_finite_fair_share_terms_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TenantConfig("t", _scfg(1), **{field: value})

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            run_serving(ServingConfig())

    def test_crash_knob_rejected_by_session_manager(self):
        with pytest.raises(ValueError, match="crash_at_batch"):
            run_serving(ServingConfig(tenants=(
                TenantConfig("t", _scfg(1, crash_at_batch=1)),
            )))


# -- per-tenant observability and memo isolation ------------------------------

class TestTenantIsolation:
    def test_private_event_logs_contain_only_their_tenant(self, tmp_path):
        trace_dir = tmp_path / "tenants"
        trace_dir.mkdir()
        result = run_serving(ServingConfig(
            tenants=(TenantConfig("a", _scfg(1)), TenantConfig("b", _scfg(2))),
            obs_config=ObsConfig(enabled=True),
            tenant_trace_dir=str(trace_dir),
        ))
        result.obs.flush()
        for tid in ("a", "b"):
            lines = (trace_dir / f"{tid}.jsonl").read_text().splitlines()
            assert lines
            events = [json.loads(ln) for ln in lines]
            assert all(e["tenant"] == tid for e in events)
            assert all(e["pool"] == tid for e in events)

    def test_shared_log_tags_tenant_and_pool_on_engine_events(self):
        result = run_serving(ServingConfig(
            tenants=(TenantConfig("a", _scfg(1)), TenantConfig("b", _scfg(2))),
            obs_config=ObsConfig(enabled=True),
        ))
        batch_events = [e for e in result.obs.events()
                        if e["type"] == "batch_completed"]
        assert {e["tenant"] for e in batch_events} == {"a", "b"}
        job_starts = [e for e in result.obs.events() if e["type"] == "job_start"]
        assert {e["pool"] for e in job_starts} == {"a", "b"}

    def test_memo_namespaces_isolate_tenants(self, tmp_path):
        memo = MemoConfig(dir=str(tmp_path / "memo"), store_candidates=False)
        scfgs = {
            t: StreamingConfig(
                pipeline=PipelineConfig(n_pulsars=3, n_observations=1,
                                        seed=s, memo_config=memo),
                arrival_rate=2400.0, batch_interval_s=0.5,
            )
            for t, s in (("a", 1), ("b", 2))
        }
        config = ServingConfig(
            tenants=tuple(TenantConfig(t, c) for t, c in scfgs.items()),
        )
        first = run_serving(config)
        assert (tmp_path / "memo" / "ns-a").is_dir()
        assert (tmp_path / "memo" / "ns-b").is_dir()
        # A warm second fleet serves from the namespaced caches and still
        # reproduces byte-identical output.
        second = run_serving(config)
        for tid in scfgs:
            assert (second.canonical_ml_text(tid)
                    == first.canonical_ml_text(tid))


# -- model hot-swap -----------------------------------------------------------

class TestHotSwap:
    def test_swap_takes_effect_at_batch_boundary(self, tmp_path,
                                                 trained_model22):
        from repro.dfs import DataNode, DFSClient
        from repro.ml.persistence import save_model
        from repro.obs import ObsSession
        from repro.sparklet.context import SparkletContext
        from repro.streaming.engine import MicroBatchEngine
        from repro.streaming.receiver import ReplayReceiver, build_stream
        from repro.streaming.serving import ModelCache, StreamScorer
        from repro.streaming.state import StreamState

        path = tmp_path / "model.pkl"
        save_model(trained_model22, path)
        session = ObsSession(ObsConfig(enabled=True))
        cache = ModelCache()
        cache.load("tenant", path)
        scorer = StreamScorer.from_cache(cache, "tenant")

        scfg = _scfg(1, arrival_rate=300.0)  # slow arrivals: several batches
        pipe = scfg.pipeline
        from repro.api import resolve_survey
        from repro.astro.population import synthesize_population
        from repro.core.pipeline import SinglePulsePipeline

        pipeline = SinglePulsePipeline(
            survey=resolve_survey(pipe.survey), seed=pipe.seed
        )
        observations = pipeline.generate(
            list(synthesize_population(pipe.n_pulsars, seed=pipe.seed)),
            pipe.n_observations,
        )
        dfs = DFSClient([DataNode(f"dn{i}") for i in range(4)], replication=2)
        ctx = SparkletContext(default_parallelism=4)
        try:
            engine = MicroBatchEngine(
                config=scfg, receiver=ReplayReceiver(build_stream(observations)),
                state=StreamState(), dfs=dfs, ctx=ctx,
                grids={observations[0].config.name: observations[0].grid},
                scorer=scorer, obs=session,
            )
            manager = SessionManager(obs=session)
            manager.add_session("tenant", engine)
            manager.apply_admission()
            first = manager.run_next_batch()
            assert first is not None
            assert first.model_version == 1
            # Publish v2 mid-stream: visible from the *next* batch on.
            cache.publish("tenant", trained_model22)
            later = []
            while (stats := manager.run_next_batch()) is not None:
                later.append(stats)
            assert later, "stream should have had more than one batch"
            assert all(s.model_version == 2 for s in later)
            swaps = [e for e in session.events() if e["type"] == MODEL_SWAPPED]
            assert len(swaps) == 1
            assert swaps[0]["version"] == 2
            assert swaps[0]["batch_id"] == later[0].batch_id
        finally:
            ctx.close()

    def test_run_serving_shares_one_load_across_tenants(self, tmp_path,
                                                        trained_model22):
        """Two tenants serving the same artifact: outputs are scored, and
        the solo identity holds for both."""
        from repro.ml.persistence import save_model

        path = tmp_path / "model.pkl"
        save_model(trained_model22, path)
        scfgs = {t: _scfg(s, model_path=str(path))
                 for t, s in (("a", 1), ("b", 2))}
        result = run_serving(ServingConfig(
            tenants=tuple(TenantConfig(t, c) for t, c in scfgs.items()),
        ))
        for tid, scfg in scfgs.items():
            res = result.tenants[tid]
            assert res.predicted is not None
            assert len(res.predicted) == res.n_pulses
            assert res.canonical_ml_text() == _solo_text(scfg)
            assert all(b.model_version == 1 for b in res.batches
                       if b.n_pulses > 0)


@pytest.fixture(scope="module")
def trained_model22(toy_classification):
    from repro.dataplane.pulse_batch import N_FEATURES
    from repro.ml import J48

    X, y = toy_classification
    rng = np.random.default_rng(1)
    X22 = np.hstack([X, rng.normal(size=(len(X), N_FEATURES - X.shape[1]))])
    return J48().fit(X22, y)
