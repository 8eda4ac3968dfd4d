"""Cluster simulation: replay measured tasks on N executors.

Why simulation: this reproduction runs on a single-core host, so a real
20-executor speedup experiment is physically impossible.  Instead, every
task is executed for real (serially, exact results) and *measured*; this
module then schedules those measured tasks onto a configurable cluster and
computes the elapsed (makespan) time, including:

- per-task launch/scheduler overheads,
- shuffle-read network transfer time,
- executor memory pressure: when the data volume an executor must hold
  exceeds its memory, the excess is charged disk write+read time plus a CPU
  spill penalty — this is what makes the paper's 1-executor configuration
  *slower than the multithreaded baseline* (RQ2).

Stages execute in sequence (a stage cannot start before its parents finish,
and D-RAPID's DAG is a chain), tasks within a stage are scheduled FIFO onto
the earliest-free executor core, exactly like Spark's default scheduling.
The replay is failure-free, as the paper's Fig. 4 job is; task failures,
executor loss and recovery are exercised on real tasks by the scheduler's
fault injector (:mod:`repro.sparklet.faults`), not on the simulated clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.sparklet.cluster import ClusterConfig
from repro.sparklet.metrics import JobMetrics, StageMetrics


@dataclass
class SimulatedStage:
    stage_id: int
    name: str
    makespan_s: float
    total_task_s: float
    spilled_bytes: float
    shuffle_read_s: float


@dataclass
class SimulatedRun:
    """Outcome of replaying one job on a simulated cluster."""

    config: ClusterConfig
    stages: list[SimulatedStage] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return sum(s.makespan_s for s in self.stages)

    @property
    def total_spilled_bytes(self) -> float:
        return sum(s.spilled_bytes for s in self.stages)


def greedy_makespan(durations: list[float], workers: int) -> float:
    """FIFO list scheduling of tasks onto ``workers`` identical slots.

    Tasks are launched in submission order on the earliest-available slot —
    Spark's behaviour for a single task set — and the makespan is when the
    last slot drains.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not durations:
        return 0.0
    slots = [0.0] * min(workers, len(durations))
    heapq.heapify(slots)
    for d in durations:
        t = heapq.heappop(slots)
        heapq.heappush(slots, t + d)
    return max(slots)


def _simulate_stage(stage: StageMetrics, config: ClusterConfig) -> SimulatedStage:
    if not stage.tasks:
        # Empty-partition stages launch no tasks and therefore pay no
        # scheduler delay (regression: empty jobs used to be charged one
        # scheduler_delay_s per stage).
        return SimulatedStage(stage.stage_id, stage.name, 0.0, 0.0, 0.0, 0.0)
    executors = config.num_executors
    net_bytes_per_s = config.network_bandwidth_mbps * 1e6 / 8.0
    disk_bytes_per_s = config.disk_bandwidth_mbps * 1e6 / 8.0

    # --- memory pressure -------------------------------------------------
    # Input bytes are spread across executors; any volume beyond executor
    # memory spills (one write + one read through the disk) and slows the
    # CPU work on the spilled share.
    stage_bytes = stage.total_bytes_in * config.data_scale
    per_executor = stage_bytes / executors
    mem = config.executor_memory_bytes
    excess = max(0.0, per_executor - mem)
    spill_fraction = 0.0 if per_executor <= 0 else excess / per_executor
    spilled_total = excess * executors
    spill_io_s_per_executor = config.spill_io_passes * excess / disk_bytes_per_s

    # --- per-task simulated cost ----------------------------------------
    # data_scale is a homothetic workload scale: a task processing k× the
    # records costs k× the CPU and moves k× the bytes.
    durations: list[float] = []
    shuffle_read_s_total = 0.0
    for task in stage.tasks:
        cpu = task.duration_s * config.data_scale * config.cpu_speed_factor
        cpu *= 1.0 + config.spill_cpu_penalty * spill_fraction
        sread = task.shuffle_read_bytes * config.data_scale / net_bytes_per_s
        shuffle_read_s_total += sread
        durations.append(cpu + sread + config.task_overhead_s)

    # Spill IO is per-executor and serializes with the compute on that
    # executor's disk; charge it once per executor wave.  External input
    # (DFS blocks) is read from each executor's local disks in parallel
    # across executors; shuffle-fed bytes were already charged to the
    # network above, so only the non-shuffle share pays disk time.
    shuffle_bytes = sum(t.shuffle_read_bytes for t in stage.tasks) * config.data_scale
    external_bytes = max(0.0, stage_bytes - shuffle_bytes)
    fixed = (
        spill_io_s_per_executor
        + external_bytes / executors / disk_bytes_per_s
        + config.scheduler_delay_s
    )
    return SimulatedStage(
        stage_id=stage.stage_id,
        name=stage.name,
        makespan_s=greedy_makespan(durations, config.total_cores) + fixed,
        total_task_s=sum(durations),
        spilled_bytes=spilled_total,
        shuffle_read_s=shuffle_read_s_total,
    )


def simulate_job(job: JobMetrics, config: ClusterConfig, obs=None) -> SimulatedRun:
    """Replay a measured job on the given cluster configuration.

    ``obs`` (an optional ObsSession, duck-typed) gets one ``sim_stage``
    event per simulated stage plus ``sim_spill`` events when a stage spills
    under memory pressure.
    """
    run = SimulatedRun(config=config)
    for stage in job.stages:
        sim = _simulate_stage(stage, config)
        run.stages.append(sim)
        _emit_sim_stage(obs, sim, config)
    return run


def _emit_sim_stage(obs, sim: SimulatedStage, config: ClusterConfig) -> None:
    """Publish one simulated stage (and any spill) to an ObsSession."""
    if obs is None or not obs.enabled:
        return
    obs.emit(
        "sim_stage", stage_id=sim.stage_id, name=sim.name,
        makespan_s=sim.makespan_s, total_task_s=sim.total_task_s,
        spilled_bytes=sim.spilled_bytes, num_executors=config.num_executors,
    )
    if sim.spilled_bytes > 0:
        obs.emit("sim_spill", stage_id=sim.stage_id, spilled_bytes=sim.spilled_bytes)
