"""Structured event log: append-only JSONL, Spark-event-log style.

Spark's UI and history server are both fed by a replayable event log of
job/stage/task lifecycle events; this module is the Sparklet analogue.  The
scheduler, the DFS, the fault injector, the cluster simulator and the span
tracer all publish here.  The log is the *source of truth* for the replay
reader (:mod:`repro.obs.replay`), which reconstructs
:class:`~repro.sparklet.metrics.JobMetrics` byte-identically from the JSONL
alone — asserted in tests and swept by a hypothesis property suite.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Any, Iterable

# -- event type vocabulary ---------------------------------------------------
# Sparklet job/stage/task lifecycle (consumed by the replay reader).
JOB_START = "job_start"
JOB_END = "job_end"
STAGE_START = "stage_start"
STAGE_END = "stage_end"
TASK_START = "task_start"
TASK_END = "task_end"
TASK_FAILURE = "task_failure"

# Executor lifecycle and recovery.
EXECUTOR_ADDED = "executor_added"
EXECUTOR_LOST = "executor_lost"
EXECUTOR_BLACKLISTED = "executor_blacklisted"
SHUFFLE_RECOVER = "shuffle_recover"
FAULT_INJECTED = "fault_injected"

# Parallel backend: worker-process lifecycle and shared-memory segments.
WORKER_SPAWNED = "worker_spawned"
WORKER_EXITED = "worker_exited"
SHM_SEGMENT_CREATED = "shm_segment_created"
SHM_SEGMENT_RELEASED = "shm_segment_released"

# Span tracer.
SPAN_START = "span_start"
SPAN_END = "span_end"

# Front-end kernel selection (emitted by astro.filterbank.single_pulse_search).
KERNEL_SELECTED = "kernel_selected"

# Memoization subsystem (repro.memo).
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
CANDIDATE_STORED = "candidate_stored"

# DFS.
DFS_PUT = "dfs_put"
DFS_DELETE = "dfs_delete"

# YARN-style resource manager.
CONTAINER_GRANTED = "container_granted"
CONTAINER_RELEASED = "container_released"

# Cluster simulator.
SIM_STAGE = "sim_stage"
SIM_SPILL = "sim_spill"

# Micro-batch streaming engine (repro.streaming).
BLOCK_RECEIVED = "block_received"
BATCH_SUBMITTED = "batch_submitted"
BATCH_COMPLETED = "batch_completed"
WATERMARK_ADVANCED = "watermark_advanced"
RATE_UPDATED = "rate_updated"
CHECKPOINT_WRITTEN = "checkpoint_written"
DRIVER_RECOVERED = "driver_recovered"

# Multi-tenant serving tier (repro.streaming.sessions / serving).
SESSION_ADMITTED = "session_admitted"
SESSION_REJECTED = "session_rejected"
SESSION_DEGRADED = "session_degraded"
MODEL_SWAPPED = "model_swapped"

# Campaign subsystem (repro.campaign): drift monitors and online retraining.
CAMPAIGN_PHASE = "campaign_phase"
DRIFT_DETECTED = "drift_detected"
RETRAIN_STARTED = "retrain_started"
RETRAIN_COMPLETED = "retrain_completed"


class EventLog:
    """Append-only structured event sink.

    Events are plain dicts with ``seq`` (dense, per-log ordering), ``t``
    (seconds since the log was opened, monotonic clock) and ``type`` keys
    plus event-specific fields.  When ``path`` is given every event is also
    written as one compact JSON line; ``flush()``/``close()`` make the file
    durable.  Payloads must be JSON-serializable — the emitting sites only
    pass scalars, strings and flat lists.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.events: list[dict[str, Any]] = []
        self._seq = 0
        self._t0 = time.perf_counter()
        self._fh: IO[str] | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, etype: str, **fields: Any) -> dict[str, Any]:
        """Record one event; returns the event dict."""
        event = {"seq": self._seq, "t": round(time.perf_counter() - self._t0, 9),
                 "type": etype}
        event.update(fields)
        self._seq += 1
        self.events.append(event)
        if self._fh is not None:
            self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        return event

    @property
    def n_events(self) -> int:
        return self._seq

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_events(source: str | Path | Iterable[dict]) -> list[dict[str, Any]]:
    """Load events from a JSONL file path or pass a dict iterable through.

    Blank lines are skipped so hand-truncated logs stay readable; a torn
    final line (crash mid-write) is dropped rather than failing the whole
    replay, mirroring how Spark's history server treats in-progress logs.
    """
    if not isinstance(source, (str, Path)):
        return list(source)
    out: list[dict[str, Any]] = []
    with open(source, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail from an interrupted run
    return out
