"""Unit tests for accumulators."""

import pytest

from repro.sparklet.scheduler import TaskFailure


class TestAccumulator:
    def test_counts_records(self, ctx):
        seen = ctx.accumulator(0)
        ctx.parallelize(range(25), 4).map(lambda _x: seen.add(1)).count()
        assert seen.value == 25

    def test_custom_op(self, ctx):
        biggest = ctx.accumulator(float("-inf"), op=max)
        ctx.parallelize([3.0, 9.0, 1.0], 3).map(biggest.add).count()
        assert biggest.value == 9.0

    def test_iadd_syntax(self, ctx):
        acc = ctx.accumulator(0)

        def bump(_x):
            nonlocal acc
            acc += 2

        ctx.parallelize(range(4), 2).map(bump).count()
        assert acc.value == 8

    def test_retried_attempts_count_once(self, ctx):
        """The Spark guarantee: a task that fails and retries must not
        double-count its accumulator adds."""
        acc = ctx.accumulator(0)
        failed: set = set()

        def injector(stage_id, partition, attempt):
            if partition == 0 and attempt == 1:
                failed.add(partition)
                raise TaskFailure("flaky")

        ctx.runtime.failure_injector = injector
        ctx.parallelize(range(12), 3).map(lambda _x: acc.add(1)).count()
        assert failed  # the injector really fired
        assert acc.value == 12

    def test_adds_from_failed_only_attempt_discarded(self, ctx):
        acc = ctx.accumulator(0)

        def injector(stage_id, partition, attempt):
            raise TaskFailure("always")

        ctx.runtime.failure_injector = injector
        with pytest.raises(TaskFailure):
            ctx.parallelize(range(4), 1).map(lambda _x: acc.add(1)).count()
        assert acc.value == 0

    def test_driver_side_add_and_reset(self, ctx):
        acc = ctx.accumulator(10)
        acc.add(5)
        assert acc.value == 15
        acc.reset()
        assert acc.value == 10

    def test_parse_error_counter_pattern(self, ctx, dfs, observation):
        """The production pattern: count dropped rows during D-RAPID parsing."""
        dropped = ctx.accumulator(0)
        dfs.put_text("/acc/data.csv", "good,1\nbad\ngood,2\nbad\n")

        def parse(line):
            parts = line.split(",")
            if len(parts) != 2:
                dropped.add(1)
                return None
            return (parts[0], int(parts[1]))

        rows = ctx.text_file(dfs, "/acc/data.csv").map(parse).filter(lambda r: r).collect()
        assert len(rows) == 2
        assert dropped.value == 2
