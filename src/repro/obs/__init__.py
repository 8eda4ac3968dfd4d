"""Observability: structured event log, span tracer, metrics registry.

The layer Spark builds its UI/history server on — a replayable event log —
plus the cross-stage tracing and per-session metrics this reproduction
needs to make its RQ1/RQ2 scalability claims inspectable:

- :class:`~repro.obs.events.EventLog` — append-only JSONL event stream
  (job/stage/task lifecycle, executor loss/blacklist, DFS activity, fault
  injections, spans).
- :func:`~repro.obs.replay.replay_job_metrics` — rebuild
  ``JobMetrics``/``StageMetrics`` byte-identically from the log alone.
- :class:`~repro.obs.trace.Tracer` — nested spans with seeded-deterministic
  ids and monotonic-clock durations.
- :class:`~repro.obs.metrics.MetricsRegistry` — counters/gauges/timers/
  fixed-bucket histograms, one registry per session (there is no
  process-wide instance).
- :mod:`repro.obs.report` — per-stage timelines, task-skew histograms and
  straggler/blacklist summaries (``python -m repro trace-report``).

Everything hangs off an :class:`~repro.obs.session.ObsSession` built from
an :class:`~repro.obs.config.ObsConfig`; disabled (the default) is a no-op.
"""

from repro.obs.config import ObsConfig
from repro.obs.events import EventLog, read_events
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.replay import ReplayError, replay_all_job_metrics, replay_job_metrics
from repro.obs.report import build_report, render_json, render_text
from repro.obs.session import NULL_OBS, ObsSession, TenantObsSession
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "ObsConfig",
    "ObsSession",
    "ReplayError",
    "Span",
    "TenantObsSession",
    "Timer",
    "Tracer",
    "build_report",
    "read_events",
    "render_json",
    "render_text",
    "replay_all_job_metrics",
    "replay_job_metrics",
]
