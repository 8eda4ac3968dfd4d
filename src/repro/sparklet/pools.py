"""Fair-share scheduler pools: Spark's fair scheduler shape for job submission.

Spark's fair scheduler organizes work into *pools*, each with a ``weight``
(relative share of the cluster) and a ``minShare`` (a floor the pool is
topped up to before any weighted sharing happens).  Its comparator —
``FairSchedulingAlgorithm`` — orders schedulables by (1) whether they are
below their min share, (2) the min-share ratio, (3) the running-to-weight
ratio, with the pool name as the final tie-break.

This module is the Sparklet analogue.  It has one user: the multi-tenant
serving tier (:mod:`repro.streaming.sessions`) queues each tenant's next
micro-batch on the tenant's pool, asks :meth:`SchedulerPools.next_entry`
which batch the shared driver picks up next, and charges each pool the
*simulated* processing seconds its batches consume.  Sparklet jobs
themselves run one at a time in submission order; they only carry their
pool's *name* (``JobMetrics.pool``, the ``job_start`` event,
:func:`pool_salt` placement).

The resource being shared is driver service time, so Spark's
``runningTasks`` becomes accumulated **service seconds**: a pool below
``min_share × elapsed`` seconds of service is starved and goes first; above
the floor, pools are ordered by ``service_s / weight``.  Everything is
integer/float arithmetic over explicitly-ordered dicts — the ordering is
deterministic, which is what lets the serving byte-identity law hold under
concurrency.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Any

__all__ = ["DEFAULT_POOL", "PoolConfig", "SchedulerPools", "pool_salt"]

#: Jobs submitted without an explicit pool land here (weight 1, no floor).
DEFAULT_POOL = "default"


def pool_salt(name: str) -> int:
    """Deterministic placement salt for a pool (0 for the default pool).

    Salting task placement by pool rotates different tenants across
    different executor subsets, so one tenant's blacklisting churn does not
    deterministically land on its neighbours' favourite executors.  The
    default pool salts to 0, keeping single-tenant placement byte-identical
    to the pre-pool scheduler.
    """
    if name == DEFAULT_POOL:
        return 0
    return zlib.crc32(name.encode("utf-8"))


@dataclass(frozen=True)
class PoolConfig:
    """One fair-scheduler pool: relative weight and a minimum-share floor.

    ``min_share`` is a *service-rate* floor in driver-seconds per elapsed
    second (0.25 means "a quarter of the driver, before weighted sharing").
    """

    name: str
    weight: float = 1.0
    min_share: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("pool name must be non-empty")
        # NaN compares False both ways, so the bounds are written to fail on it.
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(
                f"pool {self.name!r}: weight must be finite and > 0, got {self.weight!r}"
            )
        if not (math.isfinite(self.min_share) and self.min_share >= 0):
            raise ValueError(
                f"pool {self.name!r}: min_share must be finite and >= 0, "
                f"got {self.min_share!r}"
            )


@dataclass
class _PoolState:
    config: PoolConfig
    #: FIFO of pending entries (opaque to the pools component).
    queue: list[Any] = field(default_factory=list)
    #: Accumulated driver service (seconds) charged via :meth:`charge`.
    service_s: float = 0.0
    #: Entries (micro-batches) this pool has had picked.
    n_picked: int = 0


class SchedulerPools:
    """Weighted fair queueing over named pools, deterministic throughout."""

    def __init__(self) -> None:
        self._pools: dict[str, _PoolState] = {}
        self.register(PoolConfig(DEFAULT_POOL))

    # -- registration -------------------------------------------------------
    def register(self, config: PoolConfig) -> None:
        """Create or reconfigure a pool (queued work and charges survive)."""
        state = self._pools.get(config.name)
        if state is None:
            self._pools[config.name] = _PoolState(config)
        else:
            state.config = config

    def resolve(self, name: str | None) -> str:
        """Map a submitted pool name to a registered pool.

        Unknown names auto-register with default weight — Spark does the
        same when ``spark.scheduler.pool`` names a pool absent from the
        allocation file.
        """
        if name is None:
            return DEFAULT_POOL
        if name not in self._pools:
            self.register(PoolConfig(name))
        return name

    @property
    def pool_names(self) -> list[str]:
        return sorted(self._pools)

    def config_of(self, name: str) -> PoolConfig:
        return self._pools[name].config

    # -- queueing -----------------------------------------------------------
    def submit(self, name: str, entry: Any) -> None:
        """Enqueue one unit of work (FIFO within its pool)."""
        self._pools[self.resolve(name)].queue.append(entry)

    def queued_in(self, name: str) -> int:
        state = self._pools.get(name)
        return len(state.queue) if state is not None else 0

    # -- fair ordering ------------------------------------------------------
    def _sort_key(self, state: _PoolState, now_s: float) -> tuple:
        cfg = state.config
        floor_s = cfg.min_share * max(now_s, 0.0)
        needy = 1 if state.service_s < floor_s else 0
        min_share_ratio = state.service_s / max(floor_s, 1e-12)
        weight_ratio = state.service_s / cfg.weight
        # Needy pools first; among the needy, furthest below the floor wins;
        # otherwise the smallest weighted service share wins; names break ties.
        return (-needy, min_share_ratio if needy else 0.0, weight_ratio, cfg.name)

    def pick(self, now_s: float = 0.0, *, eligible: set[str] | None = None) -> str | None:
        """The pool the driver should serve next (None when nothing queued).

        ``eligible`` restricts the choice (the serving tier passes the
        tenants whose batch boundary has actually been reached).
        """
        candidates = [
            s for name, s in sorted(self._pools.items())
            if s.queue and (eligible is None or name in eligible)
        ]
        if not candidates:
            return None
        best = min(candidates, key=lambda s: self._sort_key(s, now_s))
        return best.config.name

    def next_entry(self, now_s: float = 0.0, *,
                   eligible: set[str] | None = None) -> tuple[str, Any] | None:
        """Pop the fairly-chosen next entry: ``(pool_name, entry)``."""
        name = self.pick(now_s, eligible=eligible)
        if name is None:
            return None
        state = self._pools[name]
        state.n_picked += 1
        return name, state.queue.pop(0)

    def clear_queue(self, name: str) -> None:
        """Drop any queued entries of a pool (service accounting survives)."""
        state = self._pools.get(name)
        if state is not None:
            state.queue.clear()

    # -- accounting ---------------------------------------------------------
    def charge(self, name: str, seconds: float) -> None:
        """Record driver service consumed on behalf of ``name``."""
        self._pools[self.resolve(name)].service_s += max(0.0, seconds)

    def total_service(self) -> float:
        return sum(p.service_s for p in self._pools.values())

    def shares(self) -> dict[str, float]:
        """Each pool's fraction of total service (empty pools included)."""
        total = self.total_service()
        if total <= 0:
            return {name: 0.0 for name in self._pools}
        return {name: p.service_s / total for name, p in sorted(self._pools.items())}

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-pool accounting snapshot (for results and benchmarks)."""
        shares = self.shares()
        return {
            name: {
                "weight": state.config.weight,
                "min_share": state.config.min_share,
                "service_s": state.service_s,
                "share": shares[name],
                "n_picked": state.n_picked,
                "queued": len(state.queue),
            }
            for name, state in sorted(self._pools.items())
        }
