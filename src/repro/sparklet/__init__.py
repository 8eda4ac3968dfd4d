"""Sparklet: a from-scratch Spark-like dataflow engine with a cluster simulator.

The paper runs D-RAPID on Apache Spark over Hadoop YARN.  Sparklet reproduces
the parts of that stack the paper's design depends on:

- lazy :class:`~repro.sparklet.rdd.RDD` lineage with narrow and shuffle
  dependencies, split into stages at shuffle boundaries;
- key-value pair operations (``reduce_by_key``, ``aggregate_by_key``,
  ``group_by_key``, ``join``, ``left_outer_join``, ``cogroup``) with map-side
  combining and *partition-aware joins*: two RDDs sharing a partitioner join
  without an extra shuffle — the optimization at the heart of D-RAPID's
  Stage 3 (Fig. 3 of the paper);
- a hash partitioner (:class:`~repro.sparklet.partitioner.HashPartitioner`)
  with deterministic, process-stable hashing;
- accumulators with exactly-once semantics under retry and recomputation
  (:mod:`repro.sparklet.shared`);
- a task scheduler that *really executes* every task (serially, or on a pool
  of worker processes — results are exact either way) while recording
  per-task cost metrics;
- a cluster simulator (:mod:`repro.sparklet.simulation`) that replays those
  measured tasks, failure-free as in the paper's Fig. 4, on a configurable
  YARN-style cluster (executors × cores × memory, network and disk
  bandwidth, spill penalties) to obtain the elapsed time a real cluster of
  that shape would exhibit.  This substitutes for the paper's 16-node
  Beowulf cluster, which we do not have (see DESIGN.md).  Faults are
  injected into real tasks (:mod:`repro.sparklet.faults`), not simulated.

It is not a general Spark clone: an operator exists when a pipeline, an
example, a benchmark script or a named scheduler law calls it.
"""

from repro.sparklet.cluster import ClusterConfig, ExecutorSpec, ResourceManager
from repro.sparklet.context import SparkletContext
from repro.sparklet.faults import (
    EXECUTOR_LOSS,
    FETCH_FAILURE,
    TASK_CRASH,
    ExecutorLostFailure,
    FailureRule,
    FaultConfig,
    FaultInjector,
    FetchFailedException,
    TaskFailure,
)
from repro.sparklet.metrics import JobMetrics, StageMetrics, TaskMetrics
from repro.sparklet.partitioner import HashPartitioner, Partitioner
from repro.sparklet.pools import DEFAULT_POOL, PoolConfig, SchedulerPools
from repro.sparklet.rdd import RDD
from repro.sparklet.simulation import SimulatedRun, simulate_job

__all__ = [
    "ClusterConfig",
    "DEFAULT_POOL",
    "EXECUTOR_LOSS",
    "ExecutorLostFailure",
    "ExecutorSpec",
    "FETCH_FAILURE",
    "FailureRule",
    "FaultConfig",
    "FaultInjector",
    "FetchFailedException",
    "HashPartitioner",
    "JobMetrics",
    "Partitioner",
    "PoolConfig",
    "RDD",
    "ResourceManager",
    "SchedulerPools",
    "SimulatedRun",
    "SparkletContext",
    "StageMetrics",
    "TASK_CRASH",
    "TaskFailure",
    "TaskMetrics",
    "simulate_job",
]
