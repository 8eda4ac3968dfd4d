"""Integration tests: the full Fig. 2 workflow across all subsystems."""

import numpy as np
import pytest

from repro.api import PipelineConfig, run_pipeline
from repro.astro import GBT350DRIFT, PALFA, synthesize_population
from repro.core.alm import ALM_SCHEMES
from repro.core.drapid import DRapidDriver
from repro.core.multithreaded import ThreadedBoxModel
from repro.core.rapid import run_rapid_observation_batch
from repro.dfs import DataNode, DFSClient
from repro.io.spe_files import read_ml_batch, upload_observations
from repro.ml import RandomForest, cross_validate, rank_features, select_top_k
from repro.sparklet import ClusterConfig, SparkletContext, simulate_job
from repro.sparklet.scheduler import TaskFailure


@pytest.fixture(scope="module")
def pipeline_run():
    config = PipelineConfig(scheme="7", seed=11, n_observations=3, classify=True)
    pop = synthesize_population(6, rrat_fraction=0.2, max_dm=300.0, seed=4)
    return config, run_pipeline(config, pop)


class TestFullPipeline:
    def test_all_stages_produce_artifacts(self, pipeline_run):
        _config, result = pipeline_run
        assert len(result.observations) == 3
        assert result.drapid.n_pulses > 0
        assert result.features.shape == (result.drapid.n_pulses, 22)
        assert result.report is not None

    def test_labels_consistent_with_truth(self, pipeline_run):
        _config, result = pipeline_run
        non_pulsar = result.labels == 0
        assert np.array_equal(non_pulsar, ~result.is_pulsar)

    def test_classification_beats_chance(self, pipeline_run):
        _config, result = pipeline_run
        assert result.report.recall > 0.5
        assert result.report.f_measure > 0.5

    def test_simulated_cluster_speedup_curve(self, pipeline_run):
        """RQ1 shape on the pipeline's own metrics: more executors, faster;
        knee behaviour beyond 5 executors."""
        _config, result = pipeline_run
        job = result.drapid.metrics
        elapsed = {
            n: simulate_job(job, ClusterConfig(num_executors=n)).elapsed_s
            for n in (1, 5, 10, 20)
        }
        assert elapsed[1] > elapsed[5] > elapsed[20]
        gain_1_5 = elapsed[1] / elapsed[5]
        gain_5_20 = elapsed[5] / elapsed[20]
        assert gain_1_5 > gain_5_20  # diminishing returns past the knee


class TestDistributedEqualsSerialAcrossSurveys:
    @pytest.mark.parametrize("survey", [GBT350DRIFT, PALFA], ids=lambda s: s.name)
    def test_drapid_equals_serial(self, survey):
        pop = synthesize_population(3, max_dm=min(300.0, survey.max_dm), seed=9)
        from repro.astro import generate_observation

        obs = generate_observation(survey, pop, seed=21, obs_length_s=40.0,
                                   n_noise_clusters=25, n_rfi_bursts=1)
        dfs = DFSClient([DataNode(f"d{i}") for i in range(3)], replication=2,
                        block_size=8192)
        ctx = SparkletContext(default_parallelism=3)
        data_path, cluster_path = upload_observations(dfs, [obs])
        driver = DRapidDriver(ctx=ctx, dfs=dfs, grids={survey.name: obs.grid},
                              num_partitions=5)
        result = driver.run(data_path, cluster_path)
        ctx.close()
        serial = run_rapid_observation_batch(obs)
        assert result.n_pulses == serial.n_pulses
        # ML files on the DFS aggregate back to the same pulses (stage 4 input).
        assert len(read_ml_batch(dfs, result.ml_output_path)) == serial.n_pulses

    @pytest.mark.xfail(strict=True, reason=(
        "astro.dispersion._build_ladder's np.arange leaves float noise on 109 of "
        "the 780 trial DMs of PALFA's coarsen-10 ladder (21.400000000000002); the "
        "data file's %.3f snaps them, and on cluster 42 (DMs 21.3, 21.4, 21.6) "
        "Algorithm 1 finds one pulse through the file and none on the ladder"
    ))
    def test_drapid_features_equal_serial_on_examples_observation(self):
        """``examples/survey_search.py``'s observation 12, where D-RAPID and
        serial RAPID disagree (its 690 vs 689 pulses)."""
        from repro.astro import generate_observation

        pop = synthesize_population(10, rrat_fraction=0.1, max_dm=600.0, seed=7)
        obs = generate_observation(PALFA, [pop[2]], mjd=56012.0, beam=5,
                                   n_noise_clusters=30, n_rfi_bursts=1,
                                   n_pulse_mimics=6, seed=132, obs_length_s=30.0)
        assert obs.key.to_key() == "PALFA|56012.0000|J1205-1752|5"
        dfs = DFSClient([DataNode(f"d{i}") for i in range(3)], replication=2)
        ctx = SparkletContext(default_parallelism=2)
        data_path, cluster_path = upload_observations(dfs, [obs])
        driver = DRapidDriver(ctx=ctx, dfs=dfs, grids={PALFA.name: obs.grid},
                              num_partitions=4)
        got = driver.run(data_path, cluster_path).pulse_batch.features
        ctx.close()
        want = run_rapid_observation_batch(obs).pulse_batch.features
        assert got.shape == want.shape
        by_row = lambda f: f[np.lexsort(f.T[::-1])]  # noqa: E731
        assert np.array_equal(by_row(got), by_row(want))


class TestFaultToleranceEndToEnd:
    def test_drapid_survives_task_failures(self, observation, dfs):
        ctx = SparkletContext(default_parallelism=3)
        fail_once: set = set()

        def injector(stage_id, partition, attempt):
            key = (stage_id, partition)
            if key not in fail_once and partition % 3 == 0:
                fail_once.add(key)
                raise TaskFailure("chaos")

        ctx.runtime.failure_injector = injector
        data_path, cluster_path = upload_observations(dfs, [observation],
                                                      data_path="/ft/data.csv",
                                                      cluster_path="/ft/clusters.csv")
        driver = DRapidDriver(ctx=ctx, dfs=dfs,
                              grids={"GBT350Drift": observation.grid}, num_partitions=4)
        result = driver.run(data_path, cluster_path, ml_output_path="/ft/ml")
        ctx.close()
        serial = run_rapid_observation_batch(observation)
        assert result.n_pulses == serial.n_pulses

    def test_drapid_survives_datanode_loss_between_stages(self, observation):
        dfs = DFSClient([DataNode(f"d{i}") for i in range(4)], replication=2,
                        block_size=4096)
        ctx = SparkletContext(default_parallelism=3)
        data_path, cluster_path = upload_observations(dfs, [observation])
        # d0 loses every replica it held; reads must fall through to another.
        for path in (data_path, cluster_path):
            for bid, nodes in dfs.block_locations(path):
                if "d0" in nodes:
                    dfs._nodes["d0"].drop(bid)
        driver = DRapidDriver(ctx=ctx, dfs=dfs,
                              grids={"GBT350Drift": observation.grid}, num_partitions=4)
        result = driver.run(data_path, cluster_path)
        ctx.close()
        assert result.n_pulses == run_rapid_observation_batch(observation).n_pulses


class TestFeatureSelectionEndToEnd:
    def test_paper_protocol_fs_then_cv(self, small_benchmark):
        """Rank on the FS fold, train on the rest with the top-10 features."""
        from repro.ml.validation import paper_protocol_split

        scheme = ALM_SCHEMES["2"]
        y = small_benchmark.labels(scheme)
        fs_fold, rest = paper_protocol_split(y, seed=0)
        merits = rank_features("IG", small_benchmark.features[fs_fold], y[fs_fold])
        top10 = select_top_k(merits, 10)
        assert len(top10) == 10
        rep = cross_validate(
            lambda: RandomForest(n_trees=10, seed=0),
            small_benchmark.features[rest], y[rest],
            n_folds=3, positive_collapse=scheme, feature_subset=top10,
        )
        assert rep.recall > 0.7


class TestThreadedBaselineIntegration:
    def test_model_applies_to_real_measured_tasks(self, pipeline_run):
        _config, result = pipeline_run
        search_stage = result.drapid.metrics.stages[-1]
        durations = [t.duration_s for t in search_stage.tasks]
        model = ThreadedBoxModel()
        sweep = model.sweep(durations, [1, 5, 10, 20])
        # What the model guarantees for any measured durations.  (More
        # threads need not be faster: with 20 threads every task runs on a
        # hyper-thread share, so one dominant task can outlast the serial run.)
        assert sweep[1] == pytest.approx(
            sum(d * model.cpu_speed + model.per_task_overhead_s for d in durations)
        )
        for t, elapsed in sweep.items():
            workers = min(t, 2 * model.cores)
            slot_speed = model.capacity(t) / workers
            scaled = [d * model.cpu_speed / slot_speed + model.per_task_overhead_s
                      for d in durations]
            # List scheduling: at least the longest task and the mean load,
            # at most the mean load plus the longest task (Graham's bound).
            lower = max(max(scaled), sum(scaled) / workers)
            assert lower * (1 - 1e-12) <= elapsed <= (sum(scaled) / workers + max(scaled)) * (1 + 1e-12)
