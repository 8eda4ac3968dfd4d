"""Unit tests for the D-RAPID driver, multithreaded baseline and pipeline."""

import pytest

from repro.api import PipelineConfig, run_pipeline
from repro.astro import GBT350DRIFT, generate_observation, synthesize_population
from repro.core.drapid import DRapidDriver, paper_partitions
from repro.core.multithreaded import (
    MultithreadedRapid,
    ThreadedBoxModel,
    observation_search_tasks,
)
from repro.core.rapid import run_rapid_observation_batch
from repro.dataplane import PulseBatch
from repro.io.spe_files import upload_observations


@pytest.fixture
def uploaded(observation, dfs):
    data_path, cluster_path = upload_observations(dfs, [observation])
    return data_path, cluster_path


def assert_same_pulses(got: PulseBatch, want: PulseBatch) -> None:
    """Same pulse count and peak DMs, independent of distribution order.

    The comparison a file-fed run supports: the data and cluster files
    round to ``%.3f``/``%.6f``, so bit equality with an in-memory search is
    not promised.
    """
    assert len(got) == len(want)
    assert sorted(got.feature("SNRPeakDM").round(2).tolist()) == sorted(
        want.feature("SNRPeakDM").round(2).tolist()
    )


class TestDRapidDriver:
    def test_matches_serial_rapid(self, observation, dfs, ctx, uploaded):
        data_path, cluster_path = uploaded
        driver = DRapidDriver(ctx=ctx, dfs=dfs,
                              grids={"GBT350Drift": observation.grid}, num_partitions=6)
        result = driver.run(data_path, cluster_path)
        serial = run_rapid_observation_batch(observation)
        assert_same_pulses(result.pulse_batch, serial.pulse_batch)

    def test_ml_files_written_to_dfs(self, observation, dfs, ctx, uploaded):
        data_path, cluster_path = uploaded
        driver = DRapidDriver(ctx=ctx, dfs=dfs,
                              grids={"GBT350Drift": observation.grid}, num_partitions=4)
        result = driver.run(data_path, cluster_path, ml_output_path="/ml/run1")
        parts = dfs.ls("/ml/run1/")
        assert len(parts) == 4
        rows = [l for p in parts for l in dfs.get_text(p).splitlines() if l]
        assert len(rows) == result.n_pulses

    def test_cluster_count_and_no_null_joins(self, observation, dfs, ctx, uploaded):
        data_path, cluster_path = uploaded
        driver = DRapidDriver(ctx=ctx, dfs=dfs,
                              grids={"GBT350Drift": observation.grid}, num_partitions=4)
        result = driver.run(data_path, cluster_path)
        assert result.n_clusters == len(observation.clusters)
        assert result.n_null_joins == 0

    def test_metrics_cover_load_and_search_stages(self, observation, dfs, ctx, uploaded):
        data_path, cluster_path = uploaded
        driver = DRapidDriver(ctx=ctx, dfs=dfs,
                              grids={"GBT350Drift": observation.grid}, num_partitions=4)
        result = driver.run(data_path, cluster_path)
        assert len(result.metrics.stages) >= 3  # two shuffle maps + result
        assert result.metrics.total_task_seconds > 0

    def test_paper_partitions_rule(self):
        assert paper_partitions(28) == 896  # Section 6.1's 28 cores
        assert paper_partitions(0) == 1

    def test_labels_survive_distribution(self, observation, dfs, ctx, uploaded):
        data_path, cluster_path = uploaded
        driver = DRapidDriver(ctx=ctx, dfs=dfs,
                              grids={"GBT350Drift": observation.grid}, num_partitions=4)
        result = driver.run(data_path, cluster_path)
        serial = run_rapid_observation_batch(observation)
        assert result.pulse_batch.is_pulsar.sum() == serial.pulse_batch.is_pulsar.sum() > 0


class TestDRapidMalformedRows:
    def test_garbled_rows_cost_one_record_each(self, observation, dfs, ctx):
        from repro.core.drapid import DRapidDriver
        from repro.core.rapid import run_rapid_observation_batch
        from repro.io.spe_files import build_cluster_file, build_data_file

        data_text = build_data_file([observation])
        lines = data_text.splitlines()
        # Inject garbage: truncated rows, non-numeric fields, stray header.
        key = observation.key.to_key()
        lines.insert(5, f"{key},garbled")
        lines.insert(9, f"{key},not,a,number,row,x")
        lines.insert(12, "# stray header fragment")
        dfs.put_text("/mal/data.csv", "\n".join(lines) + "\n")
        dfs.put_text("/mal/clusters.csv", build_cluster_file([observation]))

        driver = DRapidDriver(ctx=ctx, dfs=dfs,
                              grids={"GBT350Drift": observation.grid}, num_partitions=4)
        result = driver.run("/mal/data.csv", "/mal/clusters.csv", ml_output_path="/mal/ml")
        serial = run_rapid_observation_batch(observation)
        assert result.n_pulses == serial.n_pulses


class TestDRapidDroppedRowAccumulator:
    def test_malformed_cluster_rows_counted(self, observation, dfs, ctx):
        from repro.core.drapid import DRapidDriver
        from repro.io.spe_files import build_cluster_file, build_data_file

        dfs.put_text("/acc2/data.csv", build_data_file([observation]))
        cluster_text = build_cluster_file([observation]).splitlines()
        cluster_text.insert(3, "half,a,row")
        cluster_text.insert(7, "another,bad,row,entirely")
        dfs.put_text("/acc2/clusters.csv", "\n".join(cluster_text) + "\n")

        driver = DRapidDriver(ctx=ctx, dfs=dfs,
                              grids={"GBT350Drift": observation.grid}, num_partitions=4)
        result = driver.run("/acc2/data.csv", "/acc2/clusters.csv",
                            ml_output_path="/acc2/ml")
        assert result.n_dropped_cluster_rows == 2
        assert result.n_clusters == len(observation.clusters)


class TestMultithreadedRapid:
    def test_runs_tasks_and_returns_in_order(self):
        runner = MultithreadedRapid(n_threads=3)
        results = runner.run([lambda i=i: i * i for i in range(10)])
        assert results == [i * i for i in range(10)]
        assert len(runner.durations) == 10

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            MultithreadedRapid(n_threads=0).run([lambda: 1])

    def test_baseline_equals_serial_and_drapid(self, dfs, ctx):
        """Fig. 4's three runs do one computation: the baseline's task
        results, concatenated, are the serial batch bit for bit, and agree
        with the file-fed distributed run."""
        population = synthesize_population(4, max_dm=300.0, seed=5)
        observations = [
            generate_observation(
                GBT350DRIFT, [population[i % 4]], mjd=55000.0 + i, beam=i,
                n_noise_clusters=20, n_rfi_bursts=1, n_pulse_mimics=5,
                seed=17 * i, obs_length_s=30.0,
            )
            for i in range(5)
        ]
        serial = PulseBatch.concat(
            [run_rapid_observation_batch(obs).pulse_batch for obs in observations]
        )
        assert serial.is_pulsar.any() and not serial.is_pulsar.all()

        tasks = observation_search_tasks(observations)
        assert len(tasks) == len(observations)
        baseline = PulseBatch.concat(MultithreadedRapid(n_threads=2).run(tasks))
        for column in PulseBatch.__slots__:
            got, want = getattr(baseline, column), getattr(serial, column)
            assert got.dtype == want.dtype, column
            if got.dtype == object:
                assert got.tolist() == want.tolist(), column
            else:
                assert got.tobytes() == want.tobytes(), column

        data_path, cluster_path = upload_observations(dfs, observations)
        driver = DRapidDriver(ctx=ctx, dfs=dfs, num_partitions=6,
                              grids={"GBT350Drift": observations[0].grid})
        assert_same_pulses(driver.run(data_path, cluster_path).pulse_batch, serial)


class TestThreadedBoxModel:
    def test_capacity_saturates_at_smt_limit(self):
        model = ThreadedBoxModel(cores=6, smt_yield=0.25)
        assert model.capacity(1) == 1
        assert model.capacity(6) == 6
        assert model.capacity(12) == pytest.approx(7.5)
        assert model.capacity(20) == pytest.approx(7.5)  # beyond 2×cores: flat

    def test_elapsed_decreases_then_flattens(self):
        model = ThreadedBoxModel(cores=6)
        durations = [0.01] * 200
        sweep = model.sweep(durations, [1, 5, 10, 15, 20])
        assert sweep[1] > sweep[5] > sweep[10]
        assert sweep[15] == pytest.approx(sweep[20], rel=0.05)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            ThreadedBoxModel().capacity(0)


class TestPipeline:
    def test_end_to_end_without_classification(self, small_population):
        config = PipelineConfig(scheme="4", seed=2, n_observations=2)
        result = run_pipeline(config, small_population[:4])
        assert result.drapid.n_pulses == result.features.shape[0] > 0
        assert result.features.shape[1] == 22
        assert result.labels.max() < 4
        assert result.report is None

    def test_end_to_end_with_classification(self, small_population):
        config = PipelineConfig(scheme="2", seed=3, n_observations=2, classify=True)
        result = run_pipeline(config, small_population[:4])
        assert result.report is not None
        assert 0.0 <= result.report.recall <= 1.0
        assert result.report.train_time_s > 0
