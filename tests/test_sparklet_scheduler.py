"""Unit tests for stage construction, metrics capture and fault tolerance."""

import pytest

from repro.sparklet import HashPartitioner
from repro.sparklet.scheduler import TaskFailure


class TestStagePlanning:
    def test_narrow_only_job_is_single_stage(self, ctx):
        ctx.parallelize(range(10), 3).map(lambda x: x + 1).filter(lambda x: x > 2).collect()
        job = ctx.last_job_metrics()
        assert len(job.stages) == 1
        assert not job.stages[0].is_shuffle_map

    def test_shuffle_splits_into_two_stages(self, ctx):
        ctx.parallelize([(1, 1), (2, 2)], 2).reduce_by_key(lambda a, b: a + b).collect()
        job = ctx.last_job_metrics()
        assert len(job.stages) == 2
        assert job.stages[0].is_shuffle_map
        assert not job.stages[1].is_shuffle_map

    def test_completed_shuffle_not_rerun(self, ctx):
        rdd = ctx.parallelize([(1, 1), (2, 2)], 2).reduce_by_key(lambda a, b: a + b)
        rdd.collect()
        rdd.collect()  # second action reuses the map-output
        second = ctx.scheduler.job_history[-1]
        assert all(not s.is_shuffle_map for s in second.stages)

    def test_copartitioned_join_adds_no_shuffle_stage(self, ctx):
        part = HashPartitioner(4)
        a = ctx.parallelize([(i, "a") for i in range(8)], 2).partition_by(part)
        b = ctx.parallelize([(i, "b") for i in range(8)], 2).partition_by(part)
        a.join(b, partitioner=part).collect()
        job = ctx.last_job_metrics()
        # Exactly two shuffle-map stages (the two partition_by), one result.
        assert sum(1 for s in job.stages if s.is_shuffle_map) == 2
        assert sum(1 for s in job.stages if not s.is_shuffle_map) == 1

    def test_task_count_matches_partitions(self, ctx):
        ctx.parallelize(range(100), 7).map(lambda x: x).collect()
        job = ctx.last_job_metrics()
        assert len(job.stages[0].tasks) == 7


class TestMetricsCapture:
    def test_durations_positive(self, ctx):
        ctx.parallelize(range(1000), 4).map(lambda x: x * x).collect()
        job = ctx.last_job_metrics()
        assert all(t.duration_s >= 0 for t in job.stages[0].tasks)
        assert job.total_task_seconds >= 0

    def test_record_counts(self, ctx):
        ctx.parallelize(range(100), 4).collect()
        tasks = ctx.last_job_metrics().stages[0].tasks
        assert sum(t.records_in for t in tasks) == 100

    def test_shuffle_write_and_read_bytes(self, ctx):
        ctx.parallelize([(i % 3, i) for i in range(60)], 4).group_by_key().collect()
        job = ctx.last_job_metrics()
        map_stage, result_stage = job.stages
        assert map_stage.total_shuffle_write > 0
        assert sum(t.shuffle_read_bytes for t in result_stage.tasks) > 0

    def test_locality_recorded_for_dfs_input(self, ctx, dfs):
        dfs.put_text("/m.csv", "a\nb\nc\n")
        ctx.text_file(dfs, "/m.csv").collect()
        tasks = ctx.last_job_metrics().stages[0].tasks
        assert all(t.locality for t in tasks)

    def test_all_job_metrics_merges(self, ctx):
        ctx.parallelize([1], 1).collect()
        ctx.parallelize([2], 1).collect()
        assert len(ctx.all_job_metrics().stages) == 2
        ctx.reset_metrics()
        with pytest.raises(RuntimeError):
            ctx.last_job_metrics()


class TestFaultTolerance:
    def test_transient_task_failure_is_retried(self, ctx):
        attempts = {}

        def injector(stage_id, partition, attempt):
            attempts.setdefault((stage_id, partition), 0)
            attempts[(stage_id, partition)] += 1
            if partition == 1 and attempt == 1:
                raise TaskFailure("injected")

        ctx.runtime.failure_injector = injector
        got = ctx.parallelize(range(10), 3).map(lambda x: x * 2).collect()
        assert got == [x * 2 for x in range(10)]

    def test_retries_reflected_in_metrics(self, ctx):
        def injector(stage_id, partition, attempt):
            if partition == 0 and attempt <= 2:
                raise TaskFailure("flaky")

        ctx.runtime.failure_injector = injector
        ctx.parallelize(range(4), 2).collect()
        tasks = ctx.last_job_metrics().stages[0].tasks
        by_part = {t.partition: t.attempts for t in tasks}
        assert by_part[0] == 3
        assert by_part[1] == 1

    def test_permanent_failure_raises_after_max_retries(self, ctx):
        def injector(stage_id, partition, attempt):
            raise TaskFailure("always")

        ctx.runtime.failure_injector = injector
        with pytest.raises(TaskFailure):
            ctx.parallelize(range(4), 2).collect()

    def test_shuffle_map_task_failure_recovered(self, ctx):
        state = {"failed": False}

        def injector(stage_id, partition, attempt):
            # Fail the first shuffle-map task attempt once, ever.
            if not state["failed"]:
                state["failed"] = True
                raise TaskFailure("map task died")

        ctx.runtime.failure_injector = injector
        got = dict(
            ctx.parallelize([(i % 2, 1) for i in range(10)], 3)
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        assert got == {0: 5, 1: 5}


def test_attempt_protocol_and_dispatch_loop_have_one_home():
    """Under src/repro/sparklet/, task events are published only by the
    scheduler's attempt protocol, and only one function waits on workers."""
    import ast
    import re
    from pathlib import Path

    import repro.sparklet

    pkg = Path(repro.sparklet.__file__).parent
    emitters = {
        path.name
        for path in pkg.glob("*.py")
        if re.search(r"\bTASK_(START|END|FAILURE)\b", path.read_text())
    }
    assert emitters == {"scheduler.py"}

    waiters = set()
    for func in ast.walk(ast.parse((pkg / "executor.py").read_text())):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "wait_any"):
                    waiters.add(func.name)
    assert waiters == {"_run_stage"}
