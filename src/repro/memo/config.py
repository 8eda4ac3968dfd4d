"""Memo configuration and session resolution.

Three ways memoization turns on, strongest first:

1. An explicit :class:`MemoConfig` on ``PipelineConfig.memo_config`` (or
   passed straight to ``SparkletContext``) — always honored, including
   under fault injection (the chaos-memo tests rely on this).
2. ``REPRO_MEMO=1`` in the environment, with ``REPRO_MEMO_DIR`` picking
   the cache directory — the CI-friendly switch.  Env-resolved memo is
   *bypassed* when the run carries a ``fault_config``: chaos tests assert
   exact failure/retry counts, and a cache hit would skip the faults.
3. Nothing — ``resolve_memo`` returns None and every run recomputes.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.memo.candidates import CandidateDB
    from repro.memo.store import MemoStore

__all__ = ["MemoConfig", "MemoSession", "env_memo_config", "resolve_memo"]


@dataclass(frozen=True)
class MemoConfig:
    """Knobs for the memoization subsystem (see module docstring)."""

    enabled: bool = True
    #: Cache directory; None picks ``$TMPDIR/repro-memo``.
    dir: str | None = None
    #: Candidate database path; None puts ``candidates.sqlite`` in ``dir``.
    db_path: str | None = None
    #: Record classified pulses into the candidate database.
    store_candidates: bool = True
    #: Isolation namespace: a sub-store under ``dir``.  The serving tier
    #: gives each tenant its own namespace so one tenant's entries are
    #: invisible to another's.
    namespace: str | None = None

    def for_namespace(self, namespace: str) -> "MemoConfig":
        """This config scoped to an isolation namespace (e.g. a tenant id)."""
        import dataclasses

        return dataclasses.replace(self, namespace=namespace, db_path=None)

    def resolved_dir(self) -> str:
        base = self.dir or os.path.join(tempfile.gettempdir(), "repro-memo")
        if self.namespace:
            return os.path.join(base, "ns-" + self.namespace)
        return base

    def resolved_db_path(self) -> str:
        return self.db_path or os.path.join(self.resolved_dir(), "candidates.sqlite")


class MemoSession:
    """One store (+ lazily-opened candidate DB) bound to a resolved config."""

    def __init__(self, config: MemoConfig) -> None:
        from repro.memo.store import MemoStore

        self.config = config
        self.store: MemoStore = MemoStore(config.resolved_dir())
        self._db: CandidateDB | None = None

    @property
    def db(self) -> "CandidateDB":
        if self._db is None:
            from repro.memo.candidates import CandidateDB

            self._db = CandidateDB(self.config.resolved_db_path())
        return self._db

    def close(self) -> None:
        if self._db is not None:
            self._db.close()
            self._db = None


def env_memo_config() -> MemoConfig | None:
    """A MemoConfig from ``REPRO_MEMO``/``REPRO_MEMO_DIR``, or None."""
    if os.environ.get("REPRO_MEMO", "") not in ("1", "true", "yes", "on"):
        return None
    return MemoConfig(dir=os.environ.get("REPRO_MEMO_DIR") or None)


def resolve_memo(
    memo_config: MemoConfig | None,
    *,
    fault_config: object | None = None,
    namespace: str | None = None,
) -> MemoSession | None:
    """Resolve a config (explicit beats env) into a live session, or None.

    Env-derived memo is suppressed under fault injection so chaos suites
    observing failure counts see real recomputation; an *explicit* config
    is the caller saying "I know" and is honored regardless.  ``namespace``
    scopes the session (see :meth:`MemoConfig.for_namespace`).
    """
    if memo_config is None and fault_config is None:
        memo_config = env_memo_config()
    if memo_config is None or not memo_config.enabled:
        return None
    if namespace is not None:
        memo_config = memo_config.for_namespace(namespace)
    return MemoSession(memo_config)
