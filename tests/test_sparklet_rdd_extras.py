"""Unit tests for the extended RDD API (coalesce, repartition, debug string,
zip_with_index, take_ordered) and malformed-input robustness in D-RAPID."""

import numpy as np
import pytest

from repro.sparklet import HashPartitioner


class TestCoalesce:
    def test_preserves_order_and_content(self, ctx):
        data = list(range(100))
        rdd = ctx.parallelize(data, 10).coalesce(3)
        assert rdd.num_partitions == 3
        assert rdd.collect() == data

    def test_is_narrow(self, ctx):
        rdd = ctx.parallelize(range(10), 5).coalesce(2)
        rdd.collect()
        job = ctx.last_job_metrics()
        assert len(job.stages) == 1  # no shuffle stage

    def test_noop_when_growing(self, ctx):
        rdd = ctx.parallelize(range(10), 2)
        assert rdd.coalesce(5) is rdd

    def test_invalid_count(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize(range(4), 2).coalesce(0)

    def test_single_partition(self, ctx):
        parts = ctx.parallelize(range(50), 7).coalesce(1).glom().collect()
        assert len(parts) == 1
        assert parts[0] == list(range(50))


class TestRepartition:
    def test_preserves_multiset(self, ctx):
        data = list(range(40))
        rdd = ctx.parallelize(data, 2).repartition(8)
        assert rdd.num_partitions == 8
        assert sorted(rdd.collect()) == data

    def test_spreads_data(self, ctx):
        rdd = ctx.parallelize(range(400), 1).repartition(8)
        sizes = [len(p) for p in rdd.glom().collect()]
        assert max(sizes) < 400  # actually split up


class TestZipWithIndex:
    def test_indices_sequential(self, ctx):
        data = ["a", "b", "c", "d", "e"]
        got = ctx.parallelize(data, 3).zip_with_index().collect()
        assert got == [(x, i) for i, x in enumerate(data)]

    def test_empty(self, ctx):
        assert ctx.parallelize([], 2).zip_with_index().collect() == []


class TestTakeOrdered:
    def test_smallest(self, ctx):
        rng = np.random.default_rng(0)
        data = rng.permutation(100).tolist()
        assert ctx.parallelize(data, 5).take_ordered(4) == [0, 1, 2, 3]

    def test_with_key(self, ctx):
        data = [(i, -i) for i in range(20)]
        got = ctx.parallelize(data, 3).take_ordered(2, key=lambda kv: kv[1])
        assert got == [(19, -19), (18, -18)]

    def test_nonpositive(self, ctx):
        assert ctx.parallelize([1], 1).take_ordered(0) == []


class TestDebugString:
    def test_shows_lineage_with_shuffle_markers(self, ctx):
        rdd = (
            ctx.parallelize([(1, 1)], 2)
            .map(lambda kv: kv)
            .reduce_by_key(lambda a, b: a + b)
            .filter(lambda kv: True)
        )
        text = rdd.to_debug_string()
        assert "+-" in text  # the shuffle edge
        assert "parallelize" in text
        assert text.count("\n") >= 3

    def test_copartitioned_join_shows_no_extra_shuffle(self, ctx):
        part = HashPartitioner(4)
        a = ctx.parallelize([(1, "a")], 2).partition_by(part)
        b = ctx.parallelize([(1, "b")], 2).partition_by(part)
        joined = a.join(b, partitioner=part)
        # Exactly two shuffle markers: the two partition_by edges.
        assert joined.to_debug_string().count("+-") == 2


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
