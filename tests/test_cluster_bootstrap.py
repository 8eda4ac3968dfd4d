"""The one cluster bootstrap: ownership rules and single-site construction.

``open_cluster`` closes what it built (context, memo session) on normal
exit and on exception, never closes what was injected, and an injected
cluster computes exactly what a built one does.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.api import PipelineConfig, run_drapid
from repro.astro import GBT350DRIFT, generate_observation, synthesize_population
from repro.cluster import N_DATANODES, REPLICATION, open_cluster
from repro.dfs import DataNode, DFSClient
from repro.execution import ExecutionConfig
from repro.memo.config import MemoConfig, MemoSession
from repro.sparklet import SparkletContext
from repro.sparklet import shm as shm_mod

SRC = Path(__file__).resolve().parent.parent / "src"


def _open_memo(tmp_path) -> MemoSession:
    memo = MemoSession(MemoConfig(dir=str(tmp_path)))
    assert memo.db is not None  # force the SQLite handle open
    return memo


class TestOwnership:
    def test_builds_default_shape_and_closes_on_exit(self, tmp_path):
        memo = _open_memo(tmp_path)
        with open_cluster(ExecutionConfig(backend="serial"), None,
                          app_name="t", memo=memo) as (dfs, ctx):
            assert len(dfs._nodes) == N_DATANODES
            assert dfs.replication == REPLICATION
            assert ctx.memo is memo and ctx.backend_name == "serial"
            assert sum(ctx.parallelize(range(10), 2).collect()) == 45
        assert ctx._closed
        assert memo._db is None

    def test_closes_on_exception(self, tmp_path):
        memo = _open_memo(tmp_path)
        parallel = ExecutionConfig(backend="parallel", num_workers=2)
        with pytest.raises(KeyError):
            with open_cluster(parallel, None, app_name="t",
                              memo=memo) as (_dfs, ctx):
                data = [(i % 3, np.arange(4000) + i) for i in range(12)]
                ctx.parallelize(data, 4).reduce_by_key(lambda a, b: a + b).count()
                assert shm_mod.live_segments()  # there is something to leak
                raise KeyError("boom")
        assert ctx._closed
        assert memo._db is None
        assert shm_mod.live_segments() == []

    def test_injected_dfs_and_ctx_are_left_open(self, tmp_path):
        memo = _open_memo(tmp_path)
        own_dfs = DFSClient([DataNode("x0")], replication=1)
        with SparkletContext(backend="serial") as own_ctx:
            with open_cluster(None, None, app_name="t", memo=memo,
                              dfs=own_dfs, ctx=own_ctx) as (dfs, ctx):
                assert dfs is own_dfs and ctx is own_ctx
            assert not own_ctx._closed
            assert own_ctx.memo is None  # an injected context keeps its memo
            assert own_ctx.parallelize(range(4), 2).count() == 4
        assert memo._db is None  # the session handed in is still closed

    def test_malformed_workers_env_raises(self, monkeypatch):
        # The environment goes through the same validation as an explicit
        # ExecutionConfig(num_workers=0): nothing is clamped.
        for workers in ("many", "0", "-3"):
            monkeypatch.setenv("REPRO_WORKERS", workers)
            with pytest.raises(ValueError, match="REPRO_WORKERS"):
                SparkletContext()


def test_injected_cluster_gives_identical_ml_output():
    population = synthesize_population(3, seed=5)
    observations = [
        generate_observation(GBT350DRIFT, [population[i]], mjd=55100.0 + i,
                             seed=5 + i, obs_length_s=20.0)
        for i in range(2)
    ]
    config = PipelineConfig(seed=5)
    built = run_drapid(config, observations)
    # A deliberately different shape: 15 nodes, replication 3, small blocks.
    dfs = DFSClient([DataNode(f"n{i}") for i in range(15)], replication=3,
                    block_size=64 * 1024)
    with SparkletContext(default_parallelism=2) as ctx:
        injected = run_drapid(config, observations, dfs=dfs, ctx=ctx)
    assert injected.pulse_batch.to_ml_lines() == built.pulse_batch.to_ml_lines()


def test_cluster_is_constructed_in_one_place():
    """Under src/, only the bootstrap builds a context, and only it and the
    CLI's injected paper testbed build a DFS client."""
    sites: dict[str, set[str]] = {"DFSClient(": set(), "SparkletContext(": set()}
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for call in sites:
            if re.search(r"(?<![\w.`])" + re.escape(call), text):
                sites[call].add(path.relative_to(SRC).as_posix())
    assert sites["SparkletContext("] == {"repro/cluster.py"}
    assert sites["DFSClient("] == {"repro/cluster.py", "repro/cli.py"}
