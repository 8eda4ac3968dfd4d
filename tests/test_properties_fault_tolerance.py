"""Property-based tests for the fault-tolerance subsystem.

Two laws the simulator and DFS must satisfy for *any* input:

1. simulated makespan is monotone non-increasing in the executor count
   (more machines never hurt a FIFO list schedule);
2. datanode death followed by re-replication restores the replication
   factor whenever capacity allows.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.dfs import DataNode, DFSClient
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


class TestReReplicationRestoresFactor:
    @SETTINGS
    @given(
        payloads=st.lists(st.binary(min_size=1, max_size=4000), min_size=1, max_size=5),
        n_nodes=st.integers(3, 8),
        replication=st.integers(2, 3),
        victim=st.integers(0, 7),
        seed=st.integers(0, 100),
    )
    def test_kill_then_rereplicate_restores_factor(
        self, payloads, n_nodes, replication, victim, seed
    ):
        # Unbounded capacity: restoration must always be possible as long as
        # enough live nodes remain.
        dfs = DFSClient(
            [DataNode(f"dn{i}") for i in range(n_nodes)],
            replication=replication,
            block_size=1024,
            seed=seed,
        )
        for i, payload in enumerate(payloads):
            dfs.put(f"/f{i}", payload)
        dfs.kill_datanode(f"dn{victim % n_nodes}")

        live = n_nodes - 1
        target = min(replication, live)
        assert dfs.namenode.under_replicated(target) == []
        for i, payload in enumerate(payloads):
            entry = dfs.namenode.get_file(f"/f{i}")
            for bid in entry.block_ids:
                assert len(dfs.namenode.replicas_of(bid)) >= target
            assert dfs.get(f"/f{i}") == payload  # data survived intact

    @SETTINGS
    @given(
        payloads=st.lists(st.binary(min_size=1, max_size=4000), min_size=1, max_size=4),
        seed=st.integers(0, 100),
        timeout=st.floats(1.0, 60.0),
    )
    def test_heartbeat_expiry_triggers_rereplication(self, payloads, seed, timeout):
        dfs = DFSClient(
            [DataNode(f"dn{i}") for i in range(4)],
            replication=2,
            block_size=1024,
            seed=seed,
        )
        for i, payload in enumerate(payloads):
            dfs.put(f"/f{i}", payload)
        dfs.heartbeat_tick(0.0, timeout=timeout)
        # dn0 goes silent (no forgetting, no manual rereplicate call).
        dfs._nodes["dn0"].kill()
        report = dfs.heartbeat_tick(timeout + 1.0, timeout=timeout)
        assert report.declared_dead == ("dn0",)
        assert dfs.namenode.under_replicated(2) == []
        for i, payload in enumerate(payloads):
            assert dfs.get(f"/f{i}") == payload
