"""ObsSession: the live bundle of event log + tracer + metrics registry.

One session is shared by every subsystem participating in a run (the
pipeline creates it from its ``obs_config`` and hands it to the Sparklet
context and the DFS client), so all events land in a single ordered log and
all spans form a single tree.

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
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class _NullTracer:
    """Tracer stand-in whose spans are free."""

    spans: list = []

    def span(self, name: str, **attrs: Any) -> ContextManager[None]:
        return nullcontext()

    def tree(self) -> list:
        return []


class ObsSession:
    """Everything a subsystem needs to observe itself."""

    __slots__ = ("enabled", "config", "log", "tracer", "registry")

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config or ObsConfig()
        self.enabled = self.config.enabled
        if self.enabled:
            self.log = EventLog(self.config.event_log_path)
            self.tracer: Tracer | _NullTracer = Tracer(log=self.log)
            self.registry = MetricsRegistry()
        else:
            self.log = None  # type: ignore[assignment]
            self.tracer = _NULL_TRACER
            self.registry = _NULL_REGISTRY

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
    def for_tenant(self, tenant_id: str, *, pool: str | None = None,
                   path: str | None = None) -> "TenantObsSession":
        """A per-tenant view of this session (see :class:`TenantObsSession`).

        Every event emitted through the view carries ``tenant`` and
        ``pool`` fields in the shared log; with ``path`` the view also
        routes a private copy of the tenant's events to its own JSONL
        file, so one tenant's trace can be shipped without the others'.
        """
        return TenantObsSession(self, tenant_id, pool=pool, path=path)

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

    Implements the session interface the engine and DFS consume (enabled /
    emit / events / tracer / registry / flush / close), adding the tenant
    identity to every event and optionally mirroring the tenant's events
    into a private :class:`~repro.obs.events.EventLog`.  Tracer and
    registry are the parent's: spans stay one tree, metrics one registry
    (per-tenant series are separated by the event fields).  Disabled
    parents yield a disabled view — the NULL_OBS fast path survives.
    """

    __slots__ = ("enabled", "parent", "tenant", "pool", "private_log")

    def __init__(self, parent: ObsSession, tenant_id: str, *,
                 pool: str | None = None, path: str | None = None) -> None:
        self.parent = parent
        self.enabled = parent.enabled
        self.tenant = tenant_id
        #: Scheduler pool the tenant's jobs run under (defaults 1:1).
        self.pool = pool if pool is not None else tenant_id
        self.private_log = (
            EventLog(path) if (path is not None and parent.enabled) else None
        )

    # Shared pieces delegate to the parent.
    @property
    def config(self) -> ObsConfig:
        return self.parent.config

    @property
    def log(self):
        return self.parent.log

    @property
    def tracer(self):
        return self.parent.tracer

    @property
    def registry(self):
        return self.parent.registry

    def emit(self, etype: str, **fields: Any) -> None:
        if not self.enabled:
            return
        self.parent.emit(etype, tenant=self.tenant, pool=self.pool, **fields)
        if self.private_log is not None:
            self.private_log.emit(etype, tenant=self.tenant, pool=self.pool,
                                  **fields)

    def events(self) -> list[dict[str, Any]]:
        """This tenant's events in the shared log."""
        return [e for e in self.parent.events()
                if e.get("tenant") == self.tenant]

    def flush(self) -> None:
        self.parent.flush()
        if self.private_log is not None:
            self.private_log.flush()

    def close(self) -> None:
        """Close the private log only; the shared session outlives the view."""
        if self.private_log is not None:
            self.private_log.close()


_NULL_TRACER = _NullTracer()
_NULL_REGISTRY = MetricsRegistry()

#: The shared disabled session.  Its registry is a private always-empty-ish
#: sink: nothing guards writes into it because nothing writes when disabled.
NULL_OBS = ObsSession(ObsConfig(enabled=False))
