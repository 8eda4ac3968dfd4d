"""Observability: one structured event log, with a span tracer writing into it.

The layer Spark builds its UI/history server on — a replayable event log —
plus the cross-stage tracing this reproduction needs to make its RQ1/RQ2
scalability claims inspectable.  The log is the one record; everything
else reads it:

- :class:`~repro.obs.events.EventLog` — append-only JSONL event stream
  (job/stage/task lifecycle, executor loss/blacklist, DFS activity, fault
  injections, spans).
- :func:`~repro.obs.replay.replay_job_metrics` — rebuild
  ``JobMetrics``/``StageMetrics`` byte-identically from the log alone.
- :class:`~repro.obs.trace.Tracer` — nested spans, written into the log as
  ``span_start``/``span_end`` pairs with deterministic ids and
  monotonic-clock durations.
- :mod:`repro.obs.report` — per-stage timelines, task-skew histograms,
  straggler/blacklist summaries and one tenant's slice of a shared log
  (``python -m repro trace-report [--tenant T]``).

Everything hangs off an :class:`~repro.obs.session.ObsSession` built from
an :class:`~repro.obs.config.ObsConfig`; disabled (the default) is a no-op.
"""

from repro.obs.config import ObsConfig
from repro.obs.events import EventLog, read_events
from repro.obs.replay import ReplayError, replay_all_job_metrics, replay_job_metrics
from repro.obs.report import build_report, render_json, render_text
from repro.obs.session import NULL_OBS, ObsSession, TenantObsSession
from repro.obs.trace import Tracer

__all__ = [
    "EventLog",
    "NULL_OBS",
    "ObsConfig",
    "ObsSession",
    "ReplayError",
    "TenantObsSession",
    "Tracer",
    "build_report",
    "read_events",
    "render_json",
    "render_text",
    "replay_all_job_metrics",
    "replay_job_metrics",
]
