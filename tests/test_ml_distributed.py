"""Unit tests for the distributed RandomForest (future-work extension)."""

import numpy as np
import pytest

from repro.ml.distributed import DistributedRandomForest
from repro.ml.forest import RandomForest
from repro.sparklet import ClusterConfig, SparkletContext, simulate_job
from repro.sparklet.scheduler import TaskFailure


class TestDistributedRandomForest:
    def test_learns_like_local_forest(self, toy_classification):
        X, y = toy_classification
        ctx = SparkletContext(default_parallelism=4)
        dist = DistributedRandomForest(ctx, n_trees=9, seed=0).fit(X, y)
        local = RandomForest(n_trees=9, seed=0).fit(X, y)
        acc_dist = float((dist.predict(X) == y).mean())
        acc_local = float((local.predict(X) == y).mean())
        assert acc_dist > 0.9
        assert abs(acc_dist - acc_local) < 0.05

    def test_bins_once_and_grows_the_trees_a_local_fit_grows(self, toy_classification, monkeypatch):
        """One ``bin_matrix`` call per distributed fit, on the driver — not
        one per tree task — and tree i is still the tree of a local one-tree
        forest on seed i."""
        import repro.ml._hist as hist

        X, y = toy_classification
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return hist.bin_matrix(*args, **kwargs)

        monkeypatch.setattr("repro.ml.distributed.bin_matrix", counted)
        monkeypatch.setattr("repro.ml.forest.bin_matrix", counted)
        ctx = SparkletContext(default_parallelism=4)
        dist = DistributedRandomForest(ctx, n_trees=6, seed=5, max_depth=6).fit(X, y)
        assert len(calls) == 1

        def structure(node):
            here = (node.feature, node.threshold, node.counts.tolist())
            return here if node.is_leaf else (here, structure(node.left), structure(node.right))

        for i, forest in enumerate(dist._forests):
            local = RandomForest(n_trees=1, seed=5 + 1000003 * i, max_depth=6).fit(X, y)
            assert structure(forest._trees[0].root) == structure(local._trees[0].root)
        with pytest.raises(ValueError):
            dist.predict(X[:, :-1])

    def test_one_task_per_tree(self, toy_classification):
        X, y = toy_classification
        ctx = SparkletContext(default_parallelism=4)
        dist = DistributedRandomForest(ctx, n_trees=7, seed=1).fit(X, y)
        metrics = dist.training_metrics
        assert metrics.num_tasks == 7
        assert all(t.duration_s > 0 for s in metrics.stages for t in s.tasks)

    def test_cluster_simulation_projects_speedup(self, toy_classification):
        X, y = toy_classification
        ctx = SparkletContext(default_parallelism=4)
        dist = DistributedRandomForest(ctx, n_trees=16, seed=2).fit(X, y)
        job = dist.training_metrics
        one = simulate_job(job, ClusterConfig(num_executors=1)).elapsed_s
        eight = simulate_job(job, ClusterConfig(num_executors=8)).elapsed_s
        assert eight < one

    def test_predict_proba_normalized(self, toy_classification):
        X, y = toy_classification
        ctx = SparkletContext(default_parallelism=4)
        dist = DistributedRandomForest(ctx, n_trees=5, seed=3).fit(X, y)
        probs = dist.predict_proba(X[:8])
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_survives_task_failures(self, toy_classification):
        X, y = toy_classification
        ctx = SparkletContext(default_parallelism=4)
        failed: set = set()

        def injector(stage_id, partition, attempt):
            if partition == 2 and partition not in failed:
                failed.add(partition)
                raise TaskFailure("tree task died")

        ctx.runtime.failure_injector = injector
        dist = DistributedRandomForest(ctx, n_trees=6, seed=4).fit(X, y)
        assert float((dist.predict(X) == y).mean()) > 0.9

    def test_validation(self, toy_classification):
        X, y = toy_classification
        ctx = SparkletContext(default_parallelism=4)
        with pytest.raises(ValueError):
            DistributedRandomForest(ctx, n_trees=0).fit(X, y)
        with pytest.raises(RuntimeError):
            DistributedRandomForest(ctx, n_trees=2).predict(X)
