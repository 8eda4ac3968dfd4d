"""Property-based tests for the cluster simulator.

The law it must satisfy for *any* input: simulated makespan is monotone
non-increasing in the executor count (more machines never hurt a FIFO list
schedule).
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.sparklet.cluster import ClusterConfig
from repro.sparklet.metrics import JobMetrics, StageMetrics, TaskMetrics
from repro.sparklet.simulation import greedy_makespan, simulate_job

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

durations = st.lists(st.floats(0.001, 10.0, allow_nan=False), min_size=1, max_size=40)


def job_strategy():
    task = st.tuples(
        st.floats(0.001, 0.5),       # duration_s
        st.integers(0, 500_000_000), # bytes_in
        st.integers(0, 20_000_000),  # shuffle bytes
    )
    stage = st.lists(task, min_size=1, max_size=12)
    return st.lists(stage, min_size=1, max_size=3)


def build_job(stage_specs) -> JobMetrics:
    job = JobMetrics(job_id=0)
    n = len(stage_specs)
    for sid, tasks in enumerate(stage_specs):
        sm = StageMetrics(sid, f"s{sid}", is_shuffle_map=(sid < n - 1))
        for p, (dur, bytes_in, sbytes) in enumerate(tasks):
            sm.tasks.append(
                TaskMetrics(
                    stage_id=sid,
                    partition=p,
                    duration_s=dur,
                    bytes_in=bytes_in,
                    shuffle_read_bytes=sbytes if sid > 0 else 0,
                    shuffle_write_bytes=sbytes if sid < n - 1 else 0,
                )
            )
        job.stages.append(sm)
    return job


class TestMakespanMonotoneInExecutors:
    @SETTINGS
    @given(d=durations)
    def test_greedy_makespan_monotone_in_workers(self, d):
        spans = [greedy_makespan(d, w) for w in range(1, 9)]
        for wider, narrower in zip(spans[1:], spans):
            assert wider <= narrower + 1e-9

    @SETTINGS
    @given(specs=job_strategy())
    def test_simulated_job_monotone_in_executors(self, specs):
        job = build_job(specs)
        elapsed = [simulate_job(job, ClusterConfig(num_executors=n)).elapsed_s
                   for n in (1, 2, 4, 8)]
        for wider, narrower in zip(elapsed[1:], elapsed):
            assert wider <= narrower + 1e-9
