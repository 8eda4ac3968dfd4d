"""Multi-tenant serving: N streaming sessions multiplexed on one driver.

The GSP/CRAFTS systems (PAPERS.md) run the paper's pipeline *commensally*
— several surveys share one cluster, each with its own always-on stream.
This module reproduces that shape on the simulated clock:

- each tenant owns a full :class:`~repro.streaming.engine.MicroBatchEngine`
  (its own receiver, pending-cluster state, PID estimator, checkpoints and
  DFS namespace), so per-tenant semantics are *exactly* the solo engine's;
- all engines share one :class:`~repro.sparklet.context.SparkletContext`
  and one simulated driver clock, and the
  :class:`~repro.sparklet.pools.SchedulerPools` fair ordering decides whose
  due batch the driver picks up next — co-tenant contention shows up as
  scheduling delay, exactly like Spark's fair scheduler under one driver;
- admission control bounds aggregate demand *before* the queues collapse:
  ``reject`` turns away tenants that would oversubscribe the driver,
  ``degrade`` clamps every tenant's receiver rate to its weighted fair
  share of capacity (output-safe: block cutting never changes canonical
  output, see ``canonical_ml_text``).

The per-tenant byte-identity law — each tenant's canonical ML output under
concurrent serving equals its solo ``run_streaming`` output — follows from
two invariants the event loop maintains:

1. **Lazy cutting**: a tenant's batch is cut immediately before it
   executes, and a tenant's batches run strictly in order, so the tenant's
   rate timeline is always complete at cut time (same property the solo
   loop has).  Co-tenant contention changes *when* batches run, hence PID
   inputs, hence how the stream is cut into batches — but never what the
   finalized clusters contain.
2. **Per-tenant isolation** of everything stateful: receiver credit,
   stream state, estimator, DFS roots, checkpoints, memo namespace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.events import (
    SESSION_ADMITTED,
    SESSION_DEGRADED,
    SESSION_REJECTED,
)
from repro.obs.session import NULL_OBS, ObsSession
from repro.sparklet.pools import PoolConfig, SchedulerPools
from repro.streaming.engine import MicroBatchEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.engine import BatchStats

__all__ = [
    "AdmissionConfig",
    "SessionInfo",
    "SessionManager",
    "weighted_fair_shares",
]

_ADMISSION_MODES = ("degrade", "reject", "off")


@dataclass(frozen=True)
class AdmissionConfig:
    """How the serving tier reacts to aggregate demand above capacity.

    ``capacity_rows_per_s`` is the shared driver's sustainable throughput;
    when None it is the slowest engine's ``LinearCostModel.rows_per_s``
    (one serial driver sustains no more than its slowest tenant's model).
    """

    mode: str = "degrade"
    capacity_rows_per_s: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in _ADMISSION_MODES:
            raise ValueError(
                f"admission mode must be one of {_ADMISSION_MODES}, got {self.mode!r}"
            )
        cap = self.capacity_rows_per_s
        if cap is not None and not (math.isfinite(cap) and cap > 0):
            raise ValueError(f"capacity_rows_per_s must be finite and > 0, got {cap!r}")


@dataclass
class SessionInfo:
    """One tenant's session as the manager tracks it."""

    tenant_id: str
    engine: MicroBatchEngine
    weight: float = 1.0
    min_share: float = 0.0
    admitted: bool = True
    degraded: bool = False
    reject_reason: str | None = None

    @property
    def demand_rows_per_s(self) -> float:
        return self.engine.config.arrival_rate


def weighted_fair_shares(
    demands: dict[str, float], weights: dict[str, float], capacity: float
) -> dict[str, float]:
    """Max-min weighted water-filling of ``capacity`` over tenants.

    Tenants demanding less than their weighted share keep their demand;
    the surplus redistributes to the rest by weight.  Deterministic
    (iteration over sorted tenant ids).
    """
    shares: dict[str, float] = {}
    remaining = capacity
    active = dict(sorted(demands.items()))
    while active:
        total_w = sum(weights[t] for t in active)
        alloc = {t: remaining * weights[t] / total_w for t in active}
        satisfied = [t for t in sorted(active) if demands[t] <= alloc[t]]
        if not satisfied:
            shares.update(alloc)
            return shares
        for t in satisfied:
            shares[t] = demands[t]
            remaining -= demands[t]
            del active[t]
    return shares


class SessionManager:
    """The shared serving driver: one clock, N engines, fair pools.

    Build with :meth:`add_session` per tenant, then :meth:`run` — the
    event loop runs every admitted tenant's stream to completion on the
    shared simulated clock.
    """

    def __init__(self, *, admission: AdmissionConfig | None = None,
                 obs: ObsSession = NULL_OBS) -> None:
        self.pools = SchedulerPools()
        self.admission = admission if admission is not None else AdmissionConfig()
        self.obs = obs
        self.sessions: dict[str, SessionInfo] = {}
        #: Per-tenant memo session installed on the shared context for the
        #: duration of that tenant's batches (namespace isolation).
        self.memos: dict[str, Any] = {}
        #: When the shared serial driver is next free (simulated seconds).
        self.t_free = 0.0
        self.n_batches = 0
        #: Tenant whose batch :meth:`run_next_batch` executed last — lets a
        #: caller driving the loop attribute the returned stats.
        self.last_tenant: str | None = None

    # -- registration --------------------------------------------------------
    def add_session(self, tenant_id: str, engine: MicroBatchEngine, *,
                    weight: float = 1.0, min_share: float = 0.0,
                    memo: Any | None = None) -> SessionInfo:
        if tenant_id in self.sessions:
            raise ValueError(f"tenant {tenant_id!r} already has a session")
        if engine.config.crash_at_batch is not None:
            raise ValueError(
                "crash_at_batch is a single-tenant chaos knob; the serving "
                "tier recovers tenants via run_streaming, not mid-fleet"
            )
        engine.tenant = tenant_id
        self.pools.register(PoolConfig(tenant_id, weight=weight,
                                       min_share=min_share))
        info = SessionInfo(tenant_id=tenant_id, engine=engine, weight=weight,
                           min_share=min_share)
        self.sessions[tenant_id] = info
        self.memos[tenant_id] = memo
        return info

    # -- admission control ---------------------------------------------------
    def _capacity(self) -> float | None:
        if self.admission.capacity_rows_per_s is not None:
            return self.admission.capacity_rows_per_s
        # One serial driver: its sustainable row rate is the slowest model's.
        return min((info.engine.config.cost_model.rows_per_s
                    for info in self.sessions.values()), default=None)

    def apply_admission(self) -> None:
        """Decide admit/degrade/reject per tenant; emits session events."""
        cfg = self.admission
        obs = self.obs
        capacity = self._capacity() if cfg.mode != "off" else None
        infos = [self.sessions[t] for t in sorted(self.sessions)]
        demands = {i.tenant_id: i.demand_rows_per_s for i in infos}
        total = sum(demands.values())

        if capacity is not None and cfg.mode == "reject" and total > capacity:
            # First-come order (registration): admit while demand fits.
            admitted_total = 0.0
            for info in infos:
                if admitted_total + info.demand_rows_per_s <= capacity:
                    admitted_total += info.demand_rows_per_s
                else:
                    info.admitted = False
                    info.reject_reason = (
                        f"aggregate demand {total:.0f} rows/s exceeds "
                        f"capacity {capacity:.0f} rows/s"
                    )
                    obs.emit(SESSION_REJECTED, tenant=info.tenant_id,
                             demand=round(info.demand_rows_per_s, 3),
                             capacity=round(capacity, 3))
        elif capacity is not None and cfg.mode == "degrade" and total > capacity:
            weights = {i.tenant_id: i.weight for i in infos}
            shares = weighted_fair_shares(demands, weights, capacity)
            for info in infos:
                share = shares[info.tenant_id]
                if share < info.demand_rows_per_s:
                    info.degraded = True
                    info.engine.rate_cap = share
                    obs.emit(SESSION_DEGRADED, tenant=info.tenant_id,
                             demand=round(info.demand_rows_per_s, 3),
                             rate_cap=round(share, 3),
                             capacity=round(capacity, 3))
        for info in infos:
            if info.admitted:
                obs.emit(SESSION_ADMITTED, tenant=info.tenant_id,
                         weight=info.weight, min_share=info.min_share,
                         demand=round(info.demand_rows_per_s, 3),
                         degraded=info.degraded)

    # -- the shared event loop ----------------------------------------------
    def _active(self) -> dict[str, MicroBatchEngine]:
        return {
            tid: info.engine
            for tid, info in sorted(self.sessions.items())
            if info.admitted and info.engine.active
        }

    def run_next_batch(self) -> "BatchStats | None":
        """Advance the shared clock by one batch (None when all drained).

        The driver becomes free at ``t_free``; every tenant whose next
        batch boundary has been reached by then is *ready*, and the fair
        ordering picks among them.  If no tenant is ready yet, the clock
        idles forward to the earliest boundary.
        """
        active = self._active()
        if not active:
            return None
        boundaries = {tid: e.next_boundary for tid, e in active.items()}
        now = max(self.t_free, min(boundaries.values()))
        ready = {tid for tid, b in boundaries.items() if b <= now}
        for tid in sorted(ready):
            if self.pools.queued_in(tid) == 0:
                self.pools.submit(tid, tid)
        picked = self.pools.next_entry(now, eligible=ready)
        assert picked is not None  # ready is non-empty by construction
        tenant_id, _token = picked
        engine = active[tenant_id]

        # Lazy cut: immediately before execution, so the tenant's rate
        # timeline is complete — the invariant the identity law needs.
        prepared = engine.cut_next_batch()
        ctx = engine.ctx
        previous_memo = ctx.runtime.memo
        ctx.runtime.memo = self.memos.get(tenant_id)
        try:
            stats = engine.execute_batch(
                prepared, start=max(prepared.boundary_s, self.t_free)
            )
        finally:
            ctx.runtime.memo = previous_memo
        self.t_free = stats.completed_s
        self.pools.charge(tenant_id, stats.processing_s)
        self.n_batches += 1
        self.last_tenant = tenant_id
        return stats

    def run(self) -> None:
        """Apply admission, then drain every admitted tenant's stream."""
        self.apply_admission()
        while self.run_next_batch() is not None:
            pass
        for tid in self.sessions:
            self.pools.clear_queue(tid)

    # -- results -------------------------------------------------------------
    def rejected(self) -> dict[str, str]:
        return {
            tid: info.reject_reason or "rejected"
            for tid, info in sorted(self.sessions.items())
            if not info.admitted
        }

    def pool_stats(self) -> dict[str, dict[str, float]]:
        return self.pools.stats()
