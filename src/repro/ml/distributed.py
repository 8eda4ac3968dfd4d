"""Distributed RandomForest training on Sparklet (the paper's future work).

Section 7: "In future work, we plan to leverage distributed systems and
parallel machine learning to further improve the execution performance of
pulsar classification."  This module implements that direction: a
RandomForest whose trees are trained as independent Sparklet tasks, so the
same measured-task/cluster-simulation machinery that produces Fig. 4 can
project classification-training speedups on the paper's testbed.

The ensemble is embarrassingly parallel (each tree = one bootstrap sample +
one training task), which makes it the natural first target — exactly the
reasoning behind Spark MLlib's forest implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml._hist import bin_matrix
from repro.ml.forest import RandomForest, tally_votes
from repro.sparklet.context import SparkletContext
from repro.sparklet.metrics import JobMetrics


@dataclass
class DistributedRandomForest:
    """RandomForest trained tree-by-tree across Sparklet tasks.

    Produces predictions identical in distribution to a local
    :class:`~repro.ml.forest.RandomForest` with the same parameters (each
    task trains a 1-tree forest on its own seed); records per-tree training
    costs in the context's job metrics so the cluster simulator can report
    the elapsed time a real cluster would achieve.
    """

    ctx: SparkletContext
    n_trees: int = 50
    n_features_per_split: int | None = None
    min_leaf: int = 1
    max_depth: int | None = None
    n_bins: int = 64
    seed: int = 0
    _forests: list[RandomForest] = field(default_factory=list, repr=False)
    n_classes_: int = 0
    n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DistributedRandomForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) with one label per row")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        self.n_classes_ = int(y.max()) + 1
        self.n_features_ = X.shape[1]

        # One task per tree: broadcast-style closure over the matrix, binned
        # once here rather than once per task, and the labels; distinct seeds
        # per partition.  In real Spark the data would be a broadcast
        # variable; Sparklet closures capture it the same way.
        binned = bin_matrix(X, self.n_bins, y)
        params = dict(
            n_trees=1,
            n_features_per_split=self.n_features_per_split,
            min_leaf=self.min_leaf,
            max_depth=self.max_depth,
            n_bins=self.n_bins,
        )

        def train_one(tree_seed: int) -> RandomForest:
            return RandomForest(seed=tree_seed, **params)._fit_binned(binned, y)

        seeds = [self.seed + 1000003 * i for i in range(self.n_trees)]
        rdd = self.ctx.parallelize(seeds, num_partitions=self.n_trees)
        with self.ctx.obs.tracer.span("ml.fit_forest", n_trees=self.n_trees,
                                      n_rows=int(X.shape[0])):
            self._forests = rdd.map(train_one).collect()
        return self

    @property
    def training_metrics(self) -> JobMetrics:
        """Metrics of the most recent training job (one task per tree)."""
        return self.ctx.last_job_metrics()

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(tally_votes(self._forests, X, self.n_classes_, self.n_features_), axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return tally_votes(self._forests, X, self.n_classes_, self.n_features_) / len(self._forests)
