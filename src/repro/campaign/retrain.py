"""Drift-triggered online retraining over the memo candidate database.

When a :class:`~repro.campaign.drift.DriftMonitor` declares sustained
drift, the :class:`RetrainController` closes the loop the paper leaves as
future work ("leverage distributed systems and parallel machine learning"):

1. **Harvest** — pull the most recent labeled candidates from the shared
   :class:`~repro.memo.candidates.CandidateDB` (the persistent store every
   campaign batch appends to), reconstruct their feature rows with
   :meth:`~repro.dataplane.PulseBatch.from_ml_lines`.  The harvest window
   is a supervised sample of the *current* regime — storms and all.
2. **Fit** — train a fresh
   :class:`~repro.ml.distributed.DistributedRandomForest` on the shared
   Sparklet cluster inside a dedicated low-weight scheduler pool, so
   retraining steals only its fair trickle of the serving driver.
3. **Hot-swap** — publish the model into the
   :class:`~repro.streaming.serving.ModelCache` under the campaign's
   shared key; every tenant's scorer re-pins it at its next batch boundary
   (the engine's ``refresh()`` point), never mid-batch.

A cooldown keeps one regime change from triggering a retrain stampede, and
every retrain folds its ordinal into the seed, so run N of a campaign
always trains on the same harvest with the same trees — campaign reports
stay byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.obs.events import RETRAIN_COMPLETED, RETRAIN_STARTED
from repro.obs.session import NULL_OBS, ObsSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparklet.context import SparkletContext
    from repro.streaming.serving import ModelCache

__all__ = ["RetrainConfig", "RetrainController", "RetrainEvent"]


@dataclass(frozen=True)
class RetrainConfig:
    """Policy knobs for the online-retraining controller."""

    enabled: bool = True
    #: Newest labeled candidates harvested from the candidate DB per retrain.
    harvest_limit: int = 600
    #: Skip (and stay armed) below this many harvested samples — forests
    #: fit on a few dozen rows generalize worse than the model they would
    #: replace.
    min_samples: int = 120
    #: Trees in the replacement forest (small: retrains ride a busy driver).
    n_trees: int = 12
    max_depth: int | None = 10
    #: Batches to wait after a retrain before another may trigger.
    cooldown_batches: int = 10
    #: Simulated driver seconds one retrain occupies (charged to the pool).
    retrain_cost_s: float = 2.0
    #: Dedicated fair-scheduler pool for training jobs.
    pool: str = "campaign-retrain"
    pool_weight: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.harvest_limit < 1 or self.min_samples < 1:
            raise ValueError("harvest_limit and min_samples must be >= 1")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.cooldown_batches < 0:
            raise ValueError("cooldown_batches must be >= 0")
        if self.retrain_cost_s < 0:
            raise ValueError("retrain_cost_s must be >= 0")


@dataclass
class RetrainEvent:
    """One completed retrain, as recorded in the campaign report."""

    batch_index: int
    tenant: str
    version: int
    n_samples: int
    n_positive: int
    cost_s: float


class RetrainController:
    """State machine: sustained drift → harvest → fit → hot-swap.

    ``on_drift`` is the single entry point; the runner calls it whenever a
    monitor fires.  Returns the :class:`RetrainEvent` when a retrain
    actually ran (the caller charges the simulated clock and rebases the
    monitors), or None when suppressed (disabled, cooling down, or the
    harvest was too thin/one-sided to fit a classifier).
    """

    def __init__(self, config: RetrainConfig, *, ctx: "SparkletContext",
                 cache: "ModelCache", model_key: str, memo: Any,
                 obs: ObsSession = NULL_OBS) -> None:
        self.config = config
        self.ctx = ctx
        self.cache = cache
        self.model_key = model_key
        self.memo = memo
        self.obs = obs
        self.history: list[RetrainEvent] = []
        self.n_suppressed = 0
        self._last_retrain_batch: int | None = None

    # -- predicates ----------------------------------------------------------
    def cooling_down(self, batch_index: int) -> bool:
        return (
            self._last_retrain_batch is not None
            and batch_index - self._last_retrain_batch
            < self.config.cooldown_batches
        )

    # -- the loop closure -----------------------------------------------------
    def on_drift(self, batch_index: int, tenant: str) -> RetrainEvent | None:
        """React to a drift declaration at a batch boundary."""
        cfg = self.config
        if not cfg.enabled or self.cooling_down(batch_index):
            self.n_suppressed += 1
            return None

        from repro.dataplane import PulseBatch

        rows = self.memo.db.recent(cfg.harvest_limit, labeled_only=True)
        if len(rows) < cfg.min_samples:
            self.n_suppressed += 1
            return None
        batch = PulseBatch.from_ml_lines([r["ml_row"] for r in rows])
        X = batch.features
        y = np.asarray(batch.is_pulsar, dtype=int)
        if y.min() == y.max():
            # One-sided harvest (e.g. a storm window with zero pulsars):
            # a single-class forest cannot serve, keep the current model.
            self.n_suppressed += 1
            return None

        self.obs.emit(RETRAIN_STARTED, batch_id=batch_index, tenant=tenant,
                      n_samples=int(len(batch)), n_positive=int(y.sum()))
        from repro.ml.distributed import DistributedRandomForest

        model = DistributedRandomForest(
            ctx=self.ctx, n_trees=cfg.n_trees, max_depth=cfg.max_depth,
            seed=(cfg.seed * 1000003 + len(self.history) + 1) & 0x7FFFFFFF,
        )
        with self.ctx.pool(cfg.pool):
            model.fit(X, y)
        version = self.cache.publish(self.model_key, model)
        event = RetrainEvent(
            batch_index=batch_index, tenant=tenant, version=version,
            n_samples=int(len(batch)), n_positive=int(y.sum()),
            cost_s=cfg.retrain_cost_s,
        )
        self.history.append(event)
        self._last_retrain_batch = batch_index
        self.obs.emit(RETRAIN_COMPLETED, batch_id=batch_index, tenant=tenant,
                      version=version, n_samples=event.n_samples,
                      n_positive=event.n_positive,
                      cost_s=round(cfg.retrain_cost_s, 3))
        return event
