"""Tests for the repro.api facade: ``run_pipeline`` as the composition of
the stage functions, ``PipelineConfig`` validation, D-RAPID's per-dataset
DM grids, degenerate observations, the no-deprecated-paths guarantee, and
the public-surface contract (__all__ hygiene)."""

import dataclasses
import importlib
import re

import numpy as np
import pytest

import repro
from repro.api import PipelineConfig, resolve_survey, run_drapid, run_pipeline
from repro.astro import GBT350DRIFT, PALFA, generate_observation, synthesize_population
from repro.astro.clustering import Cluster
from repro.core.alm import ALM_SCHEMES, label_instances
from repro.core.pipeline import generate_observations, identify_observations
from repro.core.rapid import run_rapid_observation_batch
from repro.io.spe_files import dataset_grids


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

    def test_refuses_unknown_scheme(self):
        # Used to construct, then raise a raw KeyError at labelling.
        with pytest.raises(ValueError, match="scheme must be one of"):
            PipelineConfig(scheme="9")

    @pytest.mark.parametrize("value", [2.5, True, 0, -3, "8"])
    def test_refuses_bad_num_partitions(self, value):
        # 2.5 used to raise a raw TypeError in the partitioner; True ran as
        # one partition.
        with pytest.raises(ValueError, match="num_partitions must be an integer >= 1"):
            PipelineConfig(num_partitions=value)

    @pytest.mark.parametrize("value", [0, -1, False, 1.0])
    def test_refuses_bad_n_pulsars(self, value):
        with pytest.raises(ValueError, match="n_pulsars must be an integer >= 1"):
            PipelineConfig(n_pulsars=value)

    @pytest.mark.parametrize("value", [-1, 0, True, 2.0])
    def test_refuses_bad_n_observations(self, value):
        # -1 used to fail only at stage 4, "no pulses to build a benchmark
        # from".
        with pytest.raises(ValueError, match="n_observations must be an integer >= 1"):
            PipelineConfig(n_observations=value)

    def test_accepts_numpy_integers(self):
        config = PipelineConfig(num_partitions=np.int64(4), n_pulsars=np.int32(2))
        assert config.num_partitions == 4 and config.n_pulsars == 2


class TestFacadeParity:
    @pytest.mark.parametrize("scheme", ["2", "7"])
    def test_run_pipeline_is_generate_then_drapid_then_label(self, scheme):
        """``run_pipeline`` adds no behaviour to its stages: the same seed
        through ``generate_observations`` → ``run_drapid`` →
        ``label_instances`` gives the same features and labels, bit for bit."""
        population = _population(seed=7)
        config = PipelineConfig(scheme=scheme, seed=7, n_observations=2)
        whole = run_pipeline(config, pulsars=population)

        observations = generate_observations(config, population)
        pulses = run_drapid(config, observations).pulse_batch
        labels = label_instances(ALM_SCHEMES[scheme], pulses.features,
                                 pulses.is_pulsar, pulses.is_rrat)
        assert len(pulses) == whole.drapid.n_pulses > 0
        assert whole.features.tobytes() == pulses.features.tobytes()
        assert whole.is_pulsar.tobytes() == pulses.is_pulsar.tobytes()
        assert whole.labels.dtype == labels.dtype
        assert whole.labels.tobytes() == labels.tobytes()
        assert whole.scheme is ALM_SCHEMES[scheme]

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
            identify_observations(PipelineConfig(seed=5, num_partitions=4), [obs, obs])

    def test_run_drapid_rejects_empty_observations(self):
        with pytest.raises(ValueError, match="at least one observation"):
            run_drapid(PipelineConfig(), [])


def _palfa_observations():
    population = synthesize_population(4, max_dm=900.0, seed=5)
    return [
        generate_observation(PALFA, [population[i], population[i + 1]],
                             mjd=56000.0 + i, beam=i, seed=40 + i, obs_length_s=20.0)
        for i in range(2)
    ]


class TestGridsComeFromTheObservations:
    """D-RAPID searches each dataset on its own observations' trial-DM
    ladder (the DMSpacing feature), whatever ``config.survey`` names."""

    def test_dm_spacing_does_not_depend_on_config_survey(self):
        # Used to key the grid by the config's survey name: PALFA rows under
        # the default GBT350Drift config found no grid and wrote
        # DMSpacing = 1.0 for every pulse.
        observations = _palfa_observations()
        default = run_drapid(PipelineConfig(), observations).pulse_batch
        named = run_drapid(PipelineConfig(survey="PALFA"), observations).pulse_batch
        spacing = named.feature("DMSpacing")
        assert len(named) > 0 and len(set(spacing.tolist())) > 1
        assert default.feature("DMSpacing").tobytes() == spacing.tobytes()
        assert default.features.tobytes() == named.features.tobytes()
        # The ladder each pointing was searched on in memory.
        serial = np.concatenate([
            run_rapid_observation_batch(o).pulse_batch.feature("DMSpacing")
            for o in observations
        ])
        assert sorted(spacing.tolist()) == sorted(serial.tolist())

    def test_unequal_grids_under_one_dataset_are_refused(self):
        # Used to search the second pointing on the first pointing's ladder.
        population = _population(seed=5)
        observations = [
            generate_observation(GBT350DRIFT, [population[i]], mjd=55100.0 + i,
                                 seed=5 + i, obs_length_s=20.0, grid_coarsen=coarsen)
            for i, coarsen in enumerate((1.0, 10.0))
        ]
        with pytest.raises(ValueError, match="dataset 'GBT350Drift' has two trial-DM grids"):
            run_drapid(PipelineConfig(), observations)
        with pytest.raises(ValueError, match="dataset 'GBT350Drift'"):
            dataset_grids(observations)

    def test_one_grid_per_dataset(self):
        gbt = generate_observation(GBT350DRIFT, [], mjd=55100.0, seed=1, obs_length_s=5.0)
        gbt2 = generate_observation(GBT350DRIFT, [], mjd=55101.0, seed=2, obs_length_s=5.0)
        palfa = generate_observation(PALFA, [], mjd=55100.0, seed=3, obs_length_s=5.0)
        grids = dataset_grids([gbt, palfa, gbt2])
        assert list(grids) == ["GBT350Drift", "PALFA"]
        assert grids["GBT350Drift"] is gbt.grid and grids["PALFA"] is palfa.grid
        assert dataset_grids([]) == {}


def _fresh(obs, **changes):
    """``obs`` with ``changes``; the cached SPE columns are rebuilt."""
    return dataclasses.replace(obs, _spe_batch=None, **changes)


@pytest.fixture(params=["serial", "parallel"])
def backend(request, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", request.param)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    return request.param


class TestDegenerateObservations:
    """ROADMAP 5(b), the facade slice: each degenerate observation has a
    stated result on both backends.

    - no SPEs and no clusters: 0 pulses, 0 clusters searched, 0 null joins;
    - one SPE inside its own one-SPE cluster: the cluster is searched and
      yields 0 pulses, 0 null joins;
    - clusters whose SPEs are missing: 0 pulses and one null join (one
      observation key);
    - all noise: every cluster is searched, no pulse is flagged a pulsar,
      and the pulse count equals the in-memory search's.
    """

    @pytest.fixture(scope="class")
    def pointing(self):
        population = synthesize_population(4, seed=5)
        return generate_observation(GBT350DRIFT, [population[0]], mjd=55100.0,
                                    seed=5, obs_length_s=20.0)

    def test_no_spes(self, pointing, backend):
        empty = _fresh(pointing, spes=[], labels=np.zeros(0, dtype=int), clusters=[],
                       cluster_truth={}, pulse_truths=[])
        result = run_drapid(PipelineConfig(), [empty])
        assert (result.n_pulses, result.n_clusters, result.n_null_joins) == (0, 0, 0)

    def test_single_spe(self, pointing, backend):
        spe = max(pointing.spes, key=lambda s: s.snr)
        box = Cluster(cluster_id=0, indices=[0], dm_lo=spe.dm, dm_hi=spe.dm,
                      t_lo=spe.time_s, t_hi=spe.time_s, max_snr=spe.snr, rank=1)
        one = _fresh(pointing, spes=[spe], labels=np.zeros(1, dtype=int),
                     clusters=[box], cluster_truth={}, pulse_truths=[])
        result = run_drapid(PipelineConfig(), [one])
        assert (result.n_pulses, result.n_clusters, result.n_null_joins) == (0, 1, 0)

    def test_clusters_without_spes(self, pointing, backend):
        bare = _fresh(pointing, spes=[], labels=np.zeros(0, dtype=int))
        result = run_drapid(PipelineConfig(), [bare])
        assert result.n_pulses == 0
        assert result.n_clusters == len(pointing.clusters) > 0
        assert result.n_null_joins == 1

    def test_all_noise(self, backend):
        noise = generate_observation(GBT350DRIFT, [], mjd=55101.0, seed=6,
                                     obs_length_s=20.0)
        assert noise.positives() == [] and noise.clusters
        result = run_drapid(PipelineConfig(), [noise])
        assert result.n_clusters == len(noise.clusters)
        assert result.n_null_joins == 0
        assert not result.pulse_batch.is_pulsar.any()
        assert result.n_pulses == len(run_rapid_observation_batch(noise).pulse_batch) > 0


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
