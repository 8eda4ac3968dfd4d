"""Tests for the repro.api facade: parity with driving the pipeline class
directly, the no-deprecated-paths guarantee, and the public-surface contract
(__all__ hygiene)."""

import dataclasses
import importlib
import re

import numpy as np
import pytest

import repro
from repro.api import PipelineConfig, resolve_survey, run_drapid, run_pipeline
from repro.astro import GBT350DRIFT, PALFA, generate_observation, synthesize_population
from repro.core.pipeline import SinglePulsePipeline, identify_observations
from repro.core.search import SearchParams


def _population(seed=7, n=4):
    return synthesize_population(n, seed=seed)


class TestResolveSurvey:
    def test_by_name(self):
        assert resolve_survey("GBT350Drift") is GBT350DRIFT
        assert resolve_survey("PALFA") is PALFA

    def test_passthrough(self):
        assert resolve_survey(GBT350DRIFT) is GBT350DRIFT

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown survey"):
            resolve_survey("SUPERB")


class TestPipelineConfig:
    def test_frozen(self):
        config = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1

    def test_defaults(self):
        config = PipelineConfig()
        assert config.survey == "GBT350Drift"
        assert config.scheme == "2"
        assert config.classify is False
        assert config.fault_config is None
        assert config.obs_config is None


class TestFacadeParity:
    def test_run_pipeline_matches_legacy_output(self):
        """The facade adds no behaviour: same seed => identical artifacts."""
        population = _population(seed=7)
        config = PipelineConfig(survey="GBT350Drift", scheme="2", seed=7,
                                n_observations=2, classify=False)
        facade = run_pipeline(config, pulsars=population)
        legacy = SinglePulsePipeline(
            survey=GBT350DRIFT, scheme="2", seed=7
        ).run(list(population), n_observations=2, classify=False)
        assert facade.drapid.n_pulses == legacy.drapid.n_pulses
        assert facade.drapid.n_clusters == legacy.drapid.n_clusters
        np.testing.assert_array_equal(facade.features, legacy.features)
        np.testing.assert_array_equal(facade.is_pulsar, legacy.is_pulsar)
        np.testing.assert_array_equal(facade.labels, legacy.labels)

    def test_run_pipeline_synthesizes_population_from_config(self):
        config = PipelineConfig(seed=3, n_pulsars=4, n_observations=2)
        explicit = run_pipeline(config, pulsars=synthesize_population(4, seed=3))
        implicit = run_pipeline(config)
        np.testing.assert_array_equal(explicit.labels, implicit.labels)

    def test_run_drapid_on_prebuilt_observations(self):
        population = _population(seed=5)
        observations = [
            generate_observation(GBT350DRIFT, [population[i]], mjd=55100.0 + i,
                                 seed=5 + i, obs_length_s=20.0)
            for i in range(2)
        ]
        result = run_drapid(PipelineConfig(seed=5), observations)
        assert result.n_pulses > 0

    def test_run_drapid_refuses_duplicate_observation_keys(self):
        """A pointing passed twice, or re-generated under its own key, used
        to merge: every box searched both copies' SPEs and pulses doubled."""
        population = _population(seed=5)

        def pointing():
            return generate_observation(GBT350DRIFT, [population[0]], mjd=55100.0,
                                        seed=5, obs_length_s=20.0)

        obs = pointing()
        named = re.escape(repr(obs.key.to_key()))
        for observations in ([obs, obs], [obs, pointing()]):
            with pytest.raises(ValueError, match=f"duplicate observation key {named}"):
                run_drapid(PipelineConfig(seed=5), observations)
        with pytest.raises(ValueError, match=f"duplicate observation key {named}"):
            identify_observations(
                [obs, obs], survey=GBT350DRIFT.name, params=SearchParams(),
                num_partitions=4, seed=5,
            )

    def test_run_drapid_rejects_empty_observations(self):
        with pytest.raises(ValueError, match="at least one observation"):
            run_drapid(PipelineConfig(), [])


class TestDeprecationShim:
    """pyproject's ``error::DeprecationWarning`` filter turns any deprecated
    path these runs touch into a failure."""

    def test_api_path_does_not_warn(self):
        run_pipeline(PipelineConfig(n_pulsars=3, n_observations=1))

    def test_streaming_path_does_not_warn(self):
        from repro.api import StreamingConfig, run_streaming

        run_streaming(StreamingConfig(
            pipeline=PipelineConfig(n_pulsars=3, n_observations=1),
            batch_interval_s=0.5, arrival_rate=2000.0,
        ))


class TestPublicSurface:
    def test_top_level_lazy_exports(self):
        from repro import api

        assert repro.run_pipeline is api.run_pipeline
        assert repro.PipelineConfig is api.PipelineConfig
        with pytest.raises(AttributeError):
            repro.no_such_name

    @pytest.mark.parametrize("module", [
        "repro", "repro.api", "repro.astro", "repro.core", "repro.dataplane",
        "repro.dfs", "repro.io", "repro.ml", "repro.obs", "repro.sparklet",
        "repro.streaming",
    ])
    def test_all_names_resolve(self, module):
        mod = importlib.import_module(module)
        exported = mod.__all__
        assert exported and len(exported) == len(set(exported))
        for name in exported:
            assert getattr(mod, name) is not None
