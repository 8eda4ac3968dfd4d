"""ObsSession: the live bundle of event log + tracer.

One session is shared by every subsystem participating in a run (the
pipeline creates it from its ``obs_config`` and hands it to the Sparklet
context and the DFS client), so all events land in a single ordered log and
all spans form a single tree.  The log is the one observability record:
spans are written into it, and one tenant's slice of it is
``build_report(log, tenant=...)`` (``trace-report --tenant``).

The disabled path is a singleton (:data:`NULL_OBS`) whose ``enabled`` flag
is False; hot paths guard with ``if obs.enabled:`` so the disabled cost is
one attribute load — the observability benchmark holds this under 2%
end to end.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, ContextManager

from repro.obs.config import ObsConfig
from repro.obs.events import EventLog
from repro.obs.trace import Tracer


class _NullTracer:
    """Tracer stand-in whose spans are free."""

    def span(self, name: str, **attrs: Any) -> ContextManager[None]:
        return nullcontext()


class ObsSession:
    """Everything a subsystem needs to observe itself."""

    __slots__ = ("enabled", "log", "tracer")

    def __init__(self, config: ObsConfig | None = None) -> None:
        config = config or ObsConfig()
        self.enabled = config.enabled
        if self.enabled:
            self.log = EventLog(config.event_log_path)
            self.tracer: Tracer | _NullTracer = Tracer(self.log)
        else:
            self.log = None  # type: ignore[assignment]
            self.tracer = _NULL_TRACER

    # -- emission -----------------------------------------------------------
    def emit(self, etype: str, **fields: Any) -> None:
        """Append one structured event (no-op when disabled)."""
        if self.enabled:
            self.log.emit(etype, **fields)

    def events(self) -> list[dict[str, Any]]:
        """In-memory event list (empty when disabled)."""
        return self.log.events if self.enabled else []

    def flush(self) -> None:
        if self.enabled:
            self.log.flush()

    def close(self) -> None:
        if self.enabled:
            self.log.close()

    # -- multi-tenant views --------------------------------------------------
    def for_tenant(self, tenant_id: str) -> "TenantObsSession":
        """A per-tenant view of this session (see :class:`TenantObsSession`)."""
        return TenantObsSession(self, tenant_id)

    # -- construction --------------------------------------------------------
    @classmethod
    def from_config(cls, config: "ObsConfig | ObsSession | None") -> "ObsSession":
        """Build a session, passing through an existing one unchanged.

        Accepting a session lets composed subsystems (pipeline → context →
        scheduler; pipeline → DFS client) share a single event stream.
        ``None`` and disabled configs return the :data:`NULL_OBS` singleton,
        so the disabled path allocates nothing.
        """
        if isinstance(config, ObsSession):
            return config
        if config is None or not config.enabled:
            return NULL_OBS
        return cls(config)


class TenantObsSession:
    """One tenant's window onto a shared :class:`ObsSession`.

    Implements the part of the session interface a streaming engine
    consumes (enabled / emit / log / tracer), tagging every event with
    ``tenant`` and ``pool`` (the tenant's scheduler pool, named after it)
    in the shared log.  The tracer is the parent's, so spans stay one tree.
    Disabled parents yield a disabled view — the NULL_OBS fast path
    survives.
    """

    __slots__ = ("enabled", "parent", "tenant")

    def __init__(self, parent: ObsSession, tenant_id: str) -> None:
        self.parent = parent
        self.enabled = parent.enabled
        self.tenant = tenant_id

    @property
    def log(self):
        return self.parent.log

    @property
    def tracer(self):
        return self.parent.tracer

    def emit(self, etype: str, **fields: Any) -> None:
        if self.enabled:
            self.parent.emit(etype, tenant=self.tenant, pool=self.tenant,
                             **fields)


_NULL_TRACER = _NullTracer()

#: The shared disabled session.
NULL_OBS = ObsSession(ObsConfig(enabled=False))
