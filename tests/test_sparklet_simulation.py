"""Unit tests for the discrete-event cluster simulation."""

import dataclasses

import pytest

from repro.sparklet.cluster import ClusterConfig, ExecutorSpec
from repro.sparklet.metrics import JobMetrics, StageMetrics, TaskMetrics
from repro.sparklet.simulation import greedy_makespan, simulate_job


def make_job(durations, bytes_in=1000, shuffle_read=0, stage_id=0) -> JobMetrics:
    stage = StageMetrics(stage_id, "test")
    for i, d in enumerate(durations):
        stage.tasks.append(
            TaskMetrics(stage_id=stage_id, partition=i, duration_s=d,
                        bytes_in=bytes_in, shuffle_read_bytes=shuffle_read)
        )
    job = JobMetrics(job_id=0)
    job.stages.append(stage)
    return job


class TestGreedyMakespan:
    def test_single_worker_sums(self):
        assert greedy_makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_enough_workers_is_max(self):
        assert greedy_makespan([1.0, 2.0, 3.0], 3) == pytest.approx(3.0)

    def test_two_workers(self):
        # FIFO: w1=[1,3], w2=[2,4] → makespan 6
        assert greedy_makespan([1, 2, 3, 4], 2) == pytest.approx(6.0)

    def test_empty(self):
        assert greedy_makespan([], 5) == 0.0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            greedy_makespan([1.0], 0)

    def test_monotone_in_workers(self):
        durations = [0.5] * 40 + [2.0] * 3
        spans = [greedy_makespan(durations, w) for w in (1, 2, 4, 8, 16)]
        assert spans == sorted(spans, reverse=True)


class TestSimulateJob:
    def test_more_executors_faster(self):
        job = make_job([0.1] * 64)
        elapsed = [simulate_job(job, ClusterConfig(num_executors=n)).elapsed_s
                   for n in (1, 5, 10, 20)]
        assert elapsed == sorted(elapsed, reverse=True)

    def test_skew_limits_scaling(self):
        # One giant task: beyond enough-executors, elapsed flattens at it.
        job = make_job([5.0] + [0.01] * 50)
        five, twenty = (simulate_job(job, ClusterConfig(num_executors=n)).elapsed_s
                        for n in (5, 20))
        assert twenty >= 5.0
        assert twenty == pytest.approx(five, rel=0.2)

    def test_memory_pressure_penalizes_few_executors(self):
        # Data far exceeding one executor's memory: the 1-executor run must
        # pay spill costs (the paper's RQ2 observation).
        big_bytes = int(6 * 1024**3)  # 6 GB across the stage
        job = make_job([0.05] * 32, bytes_in=big_bytes // 32)
        one = simulate_job(job, ClusterConfig(num_executors=1))
        five = simulate_job(job, ClusterConfig(num_executors=5))
        assert one.total_spilled_bytes > 0
        assert five.total_spilled_bytes == 0
        # Spill-adjusted slowdown exceeds the pure 5× core ratio.
        assert one.elapsed_s / five.elapsed_s > 5.0

    def test_shuffle_read_charged_to_network(self):
        job = make_job([0.01] * 8, shuffle_read=10**9)
        fast_net = simulate_job(job, ClusterConfig(network_bandwidth_mbps=10000))
        slow_net = simulate_job(job, ClusterConfig(network_bandwidth_mbps=100))
        assert slow_net.elapsed_s > fast_net.elapsed_s

    def test_data_scale_amplifies_bytes(self):
        job = make_job([0.01] * 8, bytes_in=10**6)
        base = simulate_job(job, ClusterConfig(num_executors=1))
        scaled = simulate_job(job, ClusterConfig(num_executors=1, data_scale=10000.0))
        assert scaled.total_spilled_bytes > base.total_spilled_bytes

    def test_stages_execute_sequentially(self):
        job = make_job([0.1] * 4)
        job2 = make_job([0.1] * 4, stage_id=1)
        job.stages.extend(job2.stages)
        run = simulate_job(job, ClusterConfig(num_executors=2))
        assert len(run.stages) == 2
        assert run.elapsed_s == pytest.approx(sum(s.makespan_s for s in run.stages))

    def test_task_overhead_floors_elapsed(self):
        job = make_job([0.0] * 100)
        cfg = ClusterConfig(num_executors=1, executor_spec=ExecutorSpec(vcores=1),
                            task_overhead_s=0.01)
        run = simulate_job(job, cfg)
        assert run.elapsed_s >= 1.0  # 100 tasks × 10 ms on one core

    def test_cpu_speed_factor(self):
        job = make_job([1.0] * 4)
        fast = simulate_job(job, dataclasses.replace(ClusterConfig(), cpu_speed_factor=0.5))
        slow = simulate_job(job, dataclasses.replace(ClusterConfig(), cpu_speed_factor=2.0))
        assert slow.elapsed_s > fast.elapsed_s


class TestEmptyStages:
    def test_empty_job_has_zero_elapsed(self):
        # Regression: zero-task stages used to be charged scheduler_delay_s,
        # so an empty job reported nonzero simulated elapsed time.
        job = JobMetrics(job_id=0)
        job.stages.append(StageMetrics(0, "empty"))
        run = simulate_job(job, ClusterConfig())
        assert run.elapsed_s == 0.0

    def test_empty_stage_free_alongside_real_stages(self):
        job = make_job([0.1] * 4)
        job.stages.append(StageMetrics(1, "empty"))
        with_empty = simulate_job(job, ClusterConfig()).elapsed_s
        only_real = simulate_job(make_job([0.1] * 4), ClusterConfig()).elapsed_s
        assert with_empty == pytest.approx(only_real)


def spilling_chain_job() -> JobMetrics:
    """A map stage feeding a reduce stage, as D-RAPID's DAG does, plus an
    empty stage; 4.8 GB of map input spills on one or two executors."""
    job = JobMetrics(job_id=0)
    m = StageMetrics(0, "map", is_shuffle_map=True)
    for i in range(6):
        m.tasks.append(TaskMetrics(stage_id=0, partition=i, duration_s=0.05 + 0.01 * i,
                                   bytes_in=800 * 1024**2, shuffle_write_bytes=3_000_000))
    r = StageMetrics(1, "reduce")
    for i in range(4):
        r.tasks.append(TaskMetrics(stage_id=1, partition=i, duration_s=0.02 * (i + 1),
                                   bytes_in=4_500_000, shuffle_read_bytes=4_500_000))
    job.stages.extend([m, r, StageMetrics(2, "empty")])
    return job


class TestPinnedReplay:
    """The failure-free replay is the Fig. 4 engine: its numbers on a fixed
    job are pinned to the bit, as recorded before the fault model (executor
    failures, stragglers, speculation) was removed from the simulator."""

    @pytest.mark.parametrize("executors, elapsed_s, spilled_bytes", [
        (1, 150.51838019268084, 3422552064.0),
        (2, 49.53038632034042, 1811939328.0),
        (5, 8.309361552340425, 0.0),
    ])
    def test_elapsed_and_spill_unchanged(self, executors, elapsed_s, spilled_bytes):
        run = simulate_job(spilling_chain_job(), ClusterConfig(num_executors=executors))
        assert run.elapsed_s == elapsed_s
        assert run.total_spilled_bytes == spilled_bytes


class TestClusterConfigValidation:
    """An impossible cluster is refused when it is built, naming the field,
    instead of dividing by zero (or returning negative time) mid-replay."""

    @pytest.mark.parametrize("field, value", [
        ("num_executors", 0),
        ("num_executors", -3),
        ("network_bandwidth_mbps", 0.0),
        ("disk_bandwidth_mbps", -1.0),
        ("data_scale", 0.0),
        ("data_scale", -1.0),
        ("data_scale", float("nan")),
        ("cpu_speed_factor", 0.0),
        ("memory_fraction", 0.0),
        ("memory_fraction", 1.5),
        ("task_overhead_s", -0.001),
        ("scheduler_delay_s", -1.0),
        ("spill_cpu_penalty", -0.5),
        ("spill_io_passes", -1.0),
    ])
    def test_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClusterConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("memory_fraction", 1.0),
        ("task_overhead_s", 0.0),
        ("scheduler_delay_s", 0.0),
        ("spill_cpu_penalty", 0.0),
        ("spill_io_passes", 0.0),
    ])
    def test_boundary_values_accepted(self, field, value):
        run = simulate_job(make_job([0.1] * 4), ClusterConfig(**{field: value}))
        assert run.elapsed_s > 0.0
