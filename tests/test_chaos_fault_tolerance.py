"""Chaos suite: seeded fault injection must not change any result, ever.

The invariant under test is the heart of Spark's lineage fault-tolerance
story, reproduced by the Sparklet scheduler: for ANY seeded mix of task
crashes, executor losses and shuffle-fetch failures, a job's results —
collected values, DFS output bytes, accumulator totals — are byte-identical
to the fault-free run, while the metrics show that retries and stage
recomputations really happened.

``REPRO_CHAOS_SEED`` narrows the seed sweep to one value (CI runs the suite
twice with two fixed seeds on top of the default sweep).
"""

import os

import pytest

from repro.astro.population import b1853_like
from repro.astro.survey import GBT350DRIFT, generate_observation
from repro.core.drapid import DRapidDriver
from repro.dfs import DataNode, DFSClient
from repro.io.spe_files import build_cluster_file, build_data_file
from repro.sparklet import (
    EXECUTOR_LOSS,
    FETCH_FAILURE,
    TASK_CRASH,
    FailureRule,
    FaultConfig,
    SparkletContext,
)

# -- sweep configuration ----------------------------------------------------
_ENV_SEED = os.environ.get("REPRO_CHAOS_SEED")
SEEDS = [int(_ENV_SEED)] if _ENV_SEED else [1, 2, 3]

RULE_MIXES = {
    "crashes": (FailureRule(TASK_CRASH, probability=0.3, max_fires=4),),
    "losses": (
        FailureRule(TASK_CRASH, probability=0.15, max_fires=3),
        FailureRule(EXECUTOR_LOSS, probability=0.12, max_fires=2),
    ),
    "fetch": (
        FailureRule(FETCH_FAILURE, probability=0.3, max_fires=3),
        FailureRule(TASK_CRASH, probability=0.1, max_fires=2),
    ),
    "all": (
        FailureRule(TASK_CRASH, probability=0.2, max_fires=3),
        FailureRule(EXECUTOR_LOSS, probability=0.1, max_fires=2),
        FailureRule(FETCH_FAILURE, probability=0.2, max_fires=3),
    ),
}

GRID = [
    pytest.param(seed, mix, id=f"seed{seed}-{mix}")
    for seed in SEEDS
    for mix in RULE_MIXES
]


def chaos_config(seed: int, mix: str) -> FaultConfig:
    return FaultConfig(seed=seed, rules=RULE_MIXES[mix])


# -- generic Sparklet jobs --------------------------------------------------
def _wordcount_job(fault_config):
    """A shuffle job with an accumulator counting malformed records."""
    ctx = SparkletContext(
        default_parallelism=4, max_task_retries=8, fault_config=fault_config
    )
    rows = [f"k{i % 7},{i}" if i % 11 else f"bad-row-{i}" for i in range(300)]
    dropped = ctx.accumulator(0)

    def parse(row):
        if "," not in row:
            dropped.add(1)
            return None
        k, v = row.split(",")
        return (k, int(v))

    result = (
        ctx.parallelize(rows, 8)
        .map(parse)
        .filter(lambda kv: kv is not None)
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )
    return result, dropped.value, ctx


def _join_job(fault_config):
    """Two shuffles + a cogroup: exercises multi-parent lineage recovery."""
    ctx = SparkletContext(
        default_parallelism=4, max_task_retries=8, fault_config=fault_config
    )
    left = ctx.parallelize([(i % 13, i) for i in range(150)], 6).reduce_by_key(
        lambda a, b: a + b
    )
    right = ctx.parallelize([(i % 13, i * i) for i in range(100)], 5).reduce_by_key(
        lambda a, b: a + b
    )
    result = left.join(right).collect()
    return result, ctx


class TestSparkletChaosInvariant:
    @pytest.mark.parametrize("seed,mix", GRID)
    def test_wordcount_identical_under_faults(self, seed, mix):
        base, base_dropped, _ = _wordcount_job(None)
        got, got_dropped, ctx = _wordcount_job(chaos_config(seed, mix))
        assert got == base
        assert got_dropped == base_dropped > 0  # accumulator exactly-once
        assert ctx.runtime.fault_injector.total_fired > 0

    @pytest.mark.parametrize("seed,mix", GRID)
    def test_join_identical_under_faults(self, seed, mix):
        base, _ = _join_job(None)
        got, ctx = _join_job(chaos_config(seed, mix))
        assert got == base
        assert ctx.runtime.fault_injector.total_fired > 0

    def test_sweep_exercises_recovery_machinery(self):
        """Across the sweep, every fault kind fires and recovery really ran."""
        fired = {TASK_CRASH: 0, EXECUTOR_LOSS: 0, FETCH_FAILURE: 0}
        retries = recomputed = 0
        for seed in SEEDS:
            for mix in RULE_MIXES:
                _, _, ctx = _wordcount_job(chaos_config(seed, mix))
                for kind, count in ctx.runtime.fault_injector.fired_by_kind().items():
                    fired[kind] += count
                metrics = ctx.all_job_metrics()
                retries += metrics.total_retries
                recomputed += metrics.n_recomputed_stages
        assert all(count > 0 for count in fired.values()), fired
        assert retries > 0
        assert recomputed > 0

    def test_accumulator_exactly_once_under_forced_executor_loss(self):
        """An executor loss re-runs committed map tasks; adds count once."""
        fc = FaultConfig(
            seed=5, rules=(FailureRule(EXECUTOR_LOSS, probability=0.25, max_fires=2),)
        )
        ctx = SparkletContext(default_parallelism=4, max_task_retries=8, fault_config=fc)
        acc = ctx.accumulator(0)

        def tag(x):
            acc.add(1)
            return (x % 3, 1)

        counts = ctx.parallelize(range(120), 8).map(tag).reduce_by_key(
            lambda a, b: a + b
        ).collect()
        assert ctx.runtime.fault_injector.fired_by_kind()[EXECUTOR_LOSS] > 0
        assert ctx.all_job_metrics().n_recomputed_tasks > 0
        assert sorted(counts) == [(0, 40), (1, 40), (2, 40)]
        assert acc.value == 120


# -- D-RAPID end-to-end ------------------------------------------------------
@pytest.fixture(scope="module")
def drapid_inputs():
    """One observation's data/cluster files, plus injected malformed rows."""
    obs = generate_observation(
        GBT350DRIFT, [b1853_like()], mjd=55000.0, beam=0,
        n_noise_clusters=10, n_rfi_bursts=1, grid_coarsen=10.0, seed=3,
    )
    data_text = build_data_file([obs])
    # Garbled rows make the dropped-row accumulator assertion non-trivial.
    cluster_text = build_cluster_file([obs]) + "garbled row\nnot,enough\n"
    return obs, data_text, cluster_text


def _run_drapid(drapid_inputs, fault_config):
    obs, data_text, cluster_text = drapid_inputs
    dfs = DFSClient(
        [DataNode(f"dn{i}") for i in range(4)],
        replication=2, block_size=4096, seed=0,
    )
    dfs.put_text("/surveys/data.csv", data_text)
    dfs.put_text("/surveys/clusters.csv", cluster_text)
    ctx = SparkletContext(
        default_parallelism=4, max_task_retries=8, fault_config=fault_config
    )
    driver = DRapidDriver(
        ctx=ctx, dfs=dfs, grids={GBT350DRIFT.name: obs.grid}, num_partitions=8
    )
    result = driver.run("/surveys/data.csv", "/surveys/clusters.csv")
    ml_bytes = b"".join(dfs.get(p) for p in dfs.ls(result.ml_output_path))
    # Close eagerly: under REPRO_BACKEND=parallel an open context pins its
    # shared-memory payload segments, which a later shm-hygiene test would
    # see as leaks.  Metrics and the fault injector stay readable.
    ctx.close()
    return result, ml_bytes, ctx


@pytest.fixture(scope="module")
def drapid_baseline(drapid_inputs):
    return _run_drapid(drapid_inputs, None)


class TestDRapidChaosInvariant:
    @pytest.mark.parametrize("seed,mix", GRID)
    def test_faulted_run_is_byte_identical(self, drapid_inputs, drapid_baseline, seed, mix):
        base, base_ml, _ = drapid_baseline
        got, got_ml, ctx = _run_drapid(drapid_inputs, chaos_config(seed, mix))

        assert got_ml == base_ml  # byte-identical DFS output
        assert got.pulse_batch.to_ml_lines() == base.pulse_batch.to_ml_lines()
        assert got.n_clusters == base.n_clusters
        assert got.n_null_joins == base.n_null_joins
        assert got.n_dropped_cluster_rows == base.n_dropped_cluster_rows > 0
        assert ctx.runtime.fault_injector.total_fired > 0

    def test_faulted_run_records_recovery_metrics(self, drapid_inputs):
        _, _, ctx = _run_drapid(drapid_inputs, chaos_config(SEEDS[0], "all"))
        metrics = ctx.all_job_metrics()
        assert metrics.total_failures > 0
        assert metrics.total_retries > 0

    def test_fault_config_knob_on_driver(self, drapid_inputs, drapid_baseline):
        """DRapidDriver(fault_config=...) arms the context's injector."""
        obs, data_text, cluster_text = drapid_inputs
        base, base_ml, _ = drapid_baseline
        dfs = DFSClient(
            [DataNode(f"dn{i}") for i in range(4)],
            replication=2, block_size=4096, seed=0,
        )
        dfs.put_text("/surveys/data.csv", data_text)
        dfs.put_text("/surveys/clusters.csv", cluster_text)
        ctx = SparkletContext(default_parallelism=4, max_task_retries=8)
        driver = DRapidDriver(
            ctx=ctx, dfs=dfs, grids={GBT350DRIFT.name: obs.grid},
            num_partitions=8, fault_config=chaos_config(1, "all"),
        )
        assert ctx.runtime.fault_injector is not None
        result = driver.run("/surveys/data.csv", "/surveys/clusters.csv")
        ctx.close()
        ml_bytes = b"".join(dfs.get(p) for p in dfs.ls(result.ml_output_path))
        assert ml_bytes == base_ml
