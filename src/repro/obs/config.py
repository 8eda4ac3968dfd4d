"""Observability configuration: one frozen knob object for the whole stack.

Every subsystem that can observe itself (Sparklet scheduler, DFS client,
pipeline stages, the cluster simulator) takes an :class:`ObsConfig` — or an
already-constructed :class:`~repro.obs.session.ObsSession` — and does
*nothing* when observability is disabled, which is the default.  The
end-to-end benchmark measures what enabling it costs
(``trace.overhead_frac``); its ``wall_s`` no-regression gate holds the
disabled path.  An enabled session's one record is its event log.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ObsConfig:
    """What to capture and where to put it.

    Parameters
    ----------
    enabled:
        Master switch.  When False (the default) every emit/span call is a
        no-op behind a single attribute check.
    event_log_path:
        If set, events are appended to this file as JSONL (one JSON object
        per line, Spark-event-log style).  Replayable via
        :func:`repro.obs.replay.replay_job_metrics`.

    An enabled session always keeps its events in memory
    (``session.log.events``) and writes its spans into the same log, with
    counter-allocated ids so traces of seeded chaos runs are reproducible
    token for token.
    """

    enabled: bool = False
    event_log_path: str | None = None
