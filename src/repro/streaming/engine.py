"""The micro-batch engine: Spark Streaming's driver loop on a simulated clock.

Every ``batch_interval_s`` the engine cuts the receiver's blocks into one
batch, ingests them into the pending-cluster state, finalizes every
cluster the watermark has passed, and runs the finalized work as a real
D-RAPID job through Sparklet — so fault injection and lineage recovery
apply per batch.  Time is simulated: a linear **cost model** charges each
batch a processing duration, the driver is a single serial resource (batch
*k* starts at ``max(boundary_k, free_at)``), and scheduling delay vs.
processing time fall out exactly as Spark's streaming UI defines them.

The loop is deliberately written so that everything affecting *output* is
deterministic given (observations, config): block cutting uses credit
arithmetic, rate updates are timestamped at batch completion and apply
only to blocks that arrive after them, and per-batch outputs go to
deterministic DFS paths with replace semantics.  That is what makes
checkpoint recovery exactly-once and the streamed output byte-identical to
the offline pipeline.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.drapid import DRapidDriver
from repro.dataplane import PulseBatch
from repro.io.spe_files import dataset_grids, read_ml_batch
from repro.obs.events import (
    BATCH_COMPLETED,
    BATCH_SUBMITTED,
    BLOCK_RECEIVED,
    CHECKPOINT_WRITTEN,
    DRIVER_RECOVERED,
    MODEL_SWAPPED,
    RATE_UPDATED,
    WATERMARK_ADVANCED,
)
from repro.obs.session import NULL_OBS, ObsSession
from repro.streaming.backpressure import PIDRateEstimator
from repro.streaming.checkpoint import put_replace, read_checkpoint, write_checkpoint
from repro.streaming.receiver import ReplayReceiver
from repro.streaming.serving import StreamScorer
from repro.streaming.state import StreamState

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import StreamingConfig
    from repro.astro.survey import Observation
    from repro.dfs import DFSClient
    from repro.sparklet.context import SparkletContext


class SimulatedDriverCrash(RuntimeError):
    """Injected driver failure: the engine object is lost mid-stream."""

    def __init__(self, batch_id: int) -> None:
        super().__init__(f"simulated driver crash after batch {batch_id}")
        self.batch_id = batch_id


#: Receiver blocks cut per batch interval (Spark's blockInterval).
BLOCKS_PER_BATCH = 4


# -- cost model --------------------------------------------------------------

@dataclass(frozen=True)
class LinearCostModel:
    """Deterministic processing cost: ``fixed + rows / throughput``.

    Exact rate arithmetic is what lets tests and the benchmark engineer a
    precise 2× overload (arrival_rate = 2 × rows_per_s) and observe
    backpressure converge.
    """

    rows_per_s: float = 50_000.0
    fixed_s: float = 0.02

    def batch_seconds(self, n_rows: int) -> float:
        return self.fixed_s + n_rows / self.rows_per_s


# -- per-batch bookkeeping ---------------------------------------------------

@dataclass
class BatchStats:
    """One completed micro-batch, in Spark streaming-UI vocabulary."""

    batch_id: int
    boundary_s: float          # batch-interval boundary that cut it
    start_s: float             # when the (serial) driver picked it up
    completed_s: float
    scheduling_delay_s: float  # start - boundary
    processing_s: float        # cost-model charge for the batch job
    n_blocks: int
    n_rows: int
    queue_depth: int           # batches cut-but-not-started at the boundary
    rate_limit: float          # receiver rate in effect for its blocks
    n_clusters_finalized: int
    n_pulses: int
    n_scored: int
    max_batches_spanned: int   # widest cluster finalized in this batch
    #: Serving-model version pinned for this batch (0: no scorer, or a
    #: plain scorer outside any ModelCache).
    model_version: int = 0

    @property
    def total_delay_s(self) -> float:
        return self.completed_s - self.boundary_s

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "BatchStats":
        return cls(**d)


@dataclass
class StreamingResult:
    """Everything one streaming run produced."""

    observations: list
    #: All finalized pulses, concatenated in batch-emission order and read
    #: back from the per-batch DFS outputs (so recovery is kept honest).
    pulse_batch: PulseBatch
    #: In-stream predicted labels aligned with ``pulse_batch`` (None when
    #: no serving model was configured).
    predicted: np.ndarray | None
    batches: list[BatchStats]
    n_recoveries: int
    checkpoints_written: int
    obs: ObsSession | None = None

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def n_pulses(self) -> int:
        return len(self.pulse_batch)

    @property
    def max_batches_spanned(self) -> int:
        return max((b.max_batches_spanned for b in self.batches), default=0)

    @property
    def max_queue_depth(self) -> int:
        return max((b.queue_depth for b in self.batches), default=0)

    def canonical_ml_text(self) -> str:
        return canonical_ml_text(self.pulse_batch)


def canonical_ml_text(batch: PulseBatch) -> str:
    """ML rows under the canonical (observation_key, cluster_id) order.

    Offline D-RAPID emits clusters in hash-partition order; the stream
    emits them in finalization order.  Both orders are artifacts of *where*
    a cluster ran, not *what* it produced, so the equivalence law compares
    the two sides under one canonical stable sort — within a cluster, pulse
    order is load-bearing (RAPID emission order) and is preserved.
    """
    if not len(batch):
        return ""
    keys = batch.observation_key.tolist()
    cids = batch.cluster_id.tolist()
    order = sorted(range(len(batch)), key=lambda i: (keys[i], cids[i]))
    sorted_batch = batch.take(np.asarray(order, dtype=np.int64))
    return "\n".join(sorted_batch.to_ml_lines()) + "\n"


# -- the engine --------------------------------------------------------------

@dataclass(frozen=True)
class PreparedBatch:
    """One cut-but-not-yet-executed micro-batch (receiver step output)."""

    batch_id: int
    boundary_s: float
    blocks: list
    n_rows: int
    rate_limit: float


@dataclass
class MicroBatchEngine:
    """The streaming driver: receiver → batcher → state → job → serving."""

    config: "StreamingConfig"
    receiver: ReplayReceiver
    state: StreamState
    dfs: "DFSClient"
    ctx: "SparkletContext"
    grids: dict
    scorer: StreamScorer | None = None
    obs: ObsSession = NULL_OBS
    #: Disarmed by :meth:`restore` so the injected crash fires only once.
    crash_armed: bool = True
    #: Scheduler pool / tenant identity the engine's batch jobs run under
    #: (None: jobs use the context's current pool, i.e. "default").
    tenant: str | None = None
    #: Admission-control clamp on the receiver rate (rows/s); None means
    #: the configured ``arrival_rate``.  A degraded tenant gets a lower cap
    #: — output-safe, because block cutting never changes canonical output.
    rate_cap: float | None = None

    batch_index: int = 0
    free_at: float = 0.0
    stats: list[BatchStats] = field(default_factory=list)
    committed: list[int] = field(default_factory=list)
    n_checkpoints: int = 0

    def __post_init__(self) -> None:
        cfg = self.config
        self.estimator = (
            PIDRateEstimator(cfg.batch_interval_s, cfg.arrival_rate)
            if cfg.backpressure else None
        )
        # Rate-limit timeline: (time, rate) changes, looked up per block.
        self._rate_times: list[float] = [0.0]
        self._rates: list[float] = [cfg.arrival_rate]

    @classmethod
    def for_observations(
        cls,
        observations: Sequence["Observation"],
        config: "StreamingConfig",
        *,
        dfs: "DFSClient",
        ctx: "SparkletContext",
        scorer: StreamScorer | None = None,
        obs: ObsSession = NULL_OBS,
    ) -> "MicroBatchEngine":
        """A cold engine replaying ``observations`` as its source stream."""
        return cls(
            config=config, receiver=ReplayReceiver.from_observations(observations),
            state=StreamState(), dfs=dfs, ctx=ctx,
            grids=dataset_grids(observations), scorer=scorer,
            obs=obs,
        )

    # -- rate timeline ------------------------------------------------------
    def _rate_at(self, time_s: float) -> float:
        """The rate limit in effect at ``time_s``: the latest update whose
        (completion) timestamp is <= the block's arrival — rate updates do
        not travel back in time to blocks already received."""
        return self._rates[bisect_right(self._rate_times, time_s) - 1]

    def _push_rate(self, time_s: float, rate: float) -> None:
        self._rate_times.append(time_s)
        self._rates.append(rate)

    # -- batch job ----------------------------------------------------------
    def _batch_root(self, batch_id: int) -> str:
        return f"{self.config.batch_root}/batch-{batch_id:05d}"

    def read_batch(self, batch_id: int) -> PulseBatch:
        """Batch ``batch_id``'s ML output, read back from the DFS."""
        return read_ml_batch(self.dfs, f"{self._batch_root(batch_id)}/ml")

    def result(
        self, observations: list, memo=None, *, kind: str, provenance: dict,
        n_recoveries: int = 0, obs_seq_range: tuple[int, int] | None = None,
    ) -> StreamingResult:
        """Assemble the finished run from every committed batch's DFS output.

        Reads the DFS, not driver memory: if recovery missed a batch the
        output is visibly wrong, not silently patched from a dead object.
        With a candidate-storing ``memo`` the run is archived as ``kind``,
        provenance only (``reproducible=0``: per-batch inputs are re-cut
        from the live receiver, so there is no single raw input file);
        ``provenance`` adds the caller's keys to the engine's own knobs.
        """
        pulse_batch = PulseBatch.concat(
            [self.read_batch(b) for b in self.committed]
        )
        if memo is not None and memo.config.store_candidates:
            from repro.memo.candidates import record_run

            pipe = self.config.pipeline
            record_run(
                memo, kind=kind, batch=pulse_batch,
                config={
                    **provenance,
                    "params": pipe.params,
                    "num_partitions": pipe.num_partitions,
                    "seed": pipe.seed,
                    "batch_interval_s": self.config.batch_interval_s,
                    "arrival_rate": self.config.arrival_rate,
                },
                survey=observations[0].config.name if observations else None,
                seed=pipe.seed, obs_seq_range=obs_seq_range, obs=self.obs,
            )
        return StreamingResult(
            observations=observations,
            pulse_batch=pulse_batch,
            predicted=(self.scorer.score(pulse_batch)
                       if self.scorer is not None else None),
            batches=list(self.stats),
            n_recoveries=n_recoveries,
            checkpoints_written=self.n_checkpoints,
            obs=self.obs if self.obs.enabled else None,
        )

    def _run_batch_job(self, batch_id: int, units: Sequence) -> PulseBatch:
        """Run one batch's finalized units as a D-RAPID job via Sparklet."""
        if not units:
            return PulseBatch.empty()
        from repro.astro.spe import SPE_FILE_HEADER
        from repro.io.spe_files import CLUSTER_FILE_HEADER

        root = self._batch_root(batch_id)
        data_text = SPE_FILE_HEADER + "\n" + "".join(
            line + "\n" for u in units for line in u.data_lines
        )
        cluster_text = CLUSTER_FILE_HEADER + "\n" + "".join(
            line + "\n" for u in units for line in u.cluster_lines
        )
        # Replace semantics: a batch replayed after recovery rewrites its
        # inputs and outputs idempotently.
        put_replace(self.dfs, f"{root}/data.csv", data_text)
        put_replace(self.dfs, f"{root}/clusters.csv", cluster_text)
        pipe = self.config.pipeline
        driver = DRapidDriver(
            ctx=self.ctx, dfs=self.dfs, grids=self.grids, params=pipe.params,
            num_partitions=pipe.num_partitions, fault_config=pipe.fault_config,
        )
        pool_scope = (
            self.ctx.pool(self.tenant) if self.tenant is not None
            else nullcontext()
        )
        with pool_scope:
            result = driver.run(
                f"{root}/data.csv", f"{root}/clusters.csv",
                ml_output_path=f"{root}/ml",
            )
        if batch_id not in self.committed:
            self.committed.append(batch_id)
        return result.pulse_batch

    # -- the driver loop -----------------------------------------------------
    @property
    def active(self) -> bool:
        """More batches to run: the receiver or the pending state has work."""
        return not (self.receiver.exhausted and self.state.empty)

    @property
    def next_boundary(self) -> float:
        """The batch-interval boundary that will cut the next batch."""
        return (self.batch_index + 1) * self.config.batch_interval_s

    def cut_next_batch(self) -> PreparedBatch:
        """Step 1 — receive: cut the next interval's blocks under the rate
        limit in effect at each block's arrival time.

        Cutting is separated from execution so a :class:`SessionManager
        <repro.streaming.sessions.SessionManager>` can interleave several
        engines on one driver.  It must stay *lazy* — called immediately
        before :meth:`execute_batch`, never batched ahead — because the
        rate timeline only contains updates from batches that have already
        completed; cutting early would change which rate limits blocks see
        and break the solo-equivalence law.
        """
        cfg = self.config
        obs = self.obs
        interval = cfg.batch_interval_s
        block_dt = interval / BLOCKS_PER_BATCH
        batch_id = self.batch_index + 1
        if batch_id > cfg.max_batches:
            raise RuntimeError(
                f"stream did not drain within max_batches={cfg.max_batches}; "
                "arrival rate or PID min_rate may be too low"
            )
        boundary = batch_id * interval
        cap = self.rate_cap if self.rate_cap is not None else cfg.arrival_rate
        blocks = []
        rate_limit = cap
        for j in range(1, BLOCKS_PER_BATCH + 1):
            arrival = (batch_id - 1) * interval + j * block_dt
            if cfg.backpressure:
                rate_limit = min(cap, self._rate_at(arrival))
            block = self.receiver.poll(
                time_s=arrival, interval_s=block_dt,
                rate_rows_per_s=rate_limit,
            )
            if block.items:
                blocks.append(block)
                obs.emit(BLOCK_RECEIVED, block_id=block.block_id,
                         batch_id=batch_id, time_s=round(arrival, 6),
                         n_rows=block.n_rows,
                         rate_limit=round(rate_limit, 3))
        return PreparedBatch(
            batch_id=batch_id, boundary_s=boundary, blocks=blocks,
            n_rows=sum(b.n_rows for b in blocks), rate_limit=rate_limit,
        )

    def execute_batch(self, prepared: PreparedBatch,
                      start: float | None = None) -> BatchStats:
        """Steps 2–8: submit, ingest, job, clock, backpressure, checkpoint.

        ``start`` is when the driver actually picked the batch up; the solo
        loop uses its own ``free_at``, the session manager passes the shared
        driver's availability (which is how co-tenant contention becomes
        scheduling delay).
        """
        cfg = self.config
        obs = self.obs
        batch_id = prepared.batch_id
        boundary = prepared.boundary_s
        blocks = prepared.blocks
        rows = prepared.n_rows

        # 2. Submit: the serial driver picks the batch up when free.
        if start is None:
            start = max(boundary, self.free_at)
        queue_depth = sum(1 for s in self.stats if s.start_s > boundary)
        obs.emit(BATCH_SUBMITTED, batch_id=batch_id,
                 boundary_s=round(boundary, 6), start_s=round(start, 6),
                 n_blocks=len(blocks), n_rows=rows,
                 queue_depth=queue_depth)

        # 3. State: ingest, advance watermarks, finalize due clusters.
        touched = self.state.ingest(
            batch_id, (it for b in blocks for it in b.items)
        )
        for key, wm in sorted(touched.items()):
            obs.emit(WATERMARK_ADVANCED, batch_id=batch_id, key=key,
                     watermark=round(wm, 6))
        units = self.state.finalize(batch_id)

        # 4. Job + serving: the finalized work as a real Sparklet job.  A
        # pending model swap takes effect here — at the batch boundary,
        # never mid-batch (see ModelCache).
        if self.scorer is not None:
            prev_version = self.scorer.version
            if self.scorer.refresh():
                obs.emit(MODEL_SWAPPED, batch_id=batch_id,
                         old_version=prev_version,
                         version=self.scorer.version)
        pulses = self._run_batch_job(batch_id, units)
        n_scored = 0
        if self.scorer is not None and len(pulses):
            n_scored = len(self.scorer.score(pulses))

        # 5. Clock: charge the cost model, record the batch.
        processing = self.config.cost_model.batch_seconds(rows)
        completed = start + processing
        stats = BatchStats(
            batch_id=batch_id, boundary_s=boundary, start_s=start,
            completed_s=completed, scheduling_delay_s=start - boundary,
            processing_s=processing, n_blocks=len(blocks), n_rows=rows,
            queue_depth=queue_depth, rate_limit=prepared.rate_limit,
            n_clusters_finalized=sum(len(u.cluster_lines) for u in units),
            n_pulses=len(pulses), n_scored=n_scored,
            max_batches_spanned=max(
                (u.n_batches_spanned for u in units), default=0
            ),
            model_version=(self.scorer.version if self.scorer is not None
                           else 0),
        )
        self.stats.append(stats)
        self.free_at = completed
        self.batch_index = batch_id
        obs.emit(BATCH_COMPLETED, batch_id=batch_id,
                 processing_s=round(processing, 6),
                 total_delay_s=round(completed - boundary, 6),
                 n_clusters=stats.n_clusters_finalized,
                 n_pulses=len(pulses), n_scored=n_scored)

        # 6. Backpressure: fold the batch into the PID estimator.
        if self.estimator is not None:
            new_rate = self.estimator.compute(
                completed, rows, processing, start - boundary
            )
            if new_rate is not None:
                self._push_rate(completed, new_rate)
                obs.emit(RATE_UPDATED, batch_id=batch_id,
                         rate=round(new_rate, 3),
                         time_s=round(completed, 6))

        # 7. Fault point: the injected crash fires *before* this batch's
        # checkpoint — the worst case, maximizing the replay window.
        if (self.crash_armed and cfg.crash_at_batch is not None
                and batch_id >= cfg.crash_at_batch):
            raise SimulatedDriverCrash(batch_id)

        # 8. Checkpoint: durable state to the DFS.
        if cfg.checkpoint_interval and batch_id % cfg.checkpoint_interval == 0:
            n_bytes = write_checkpoint(
                self.dfs, cfg.checkpoint_path, self.snapshot()
            )
            self.n_checkpoints += 1
            obs.emit(CHECKPOINT_WRITTEN, batch_id=batch_id,
                     path=cfg.checkpoint_path, n_bytes=n_bytes)
        return stats

    def run(self) -> None:
        while self.active:
            self.execute_batch(self.cut_next_batch())

    # -- checkpoint ----------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "batch_index": self.batch_index,
            "free_at": self.free_at,
            "receiver": self.receiver.snapshot(),
            "estimator": (self.estimator.snapshot()
                          if self.estimator is not None else None),
            "state": self.state.snapshot(),
            "committed": list(self.committed),
            "stats": [s.to_dict() for s in self.stats],
            "n_checkpoints": self.n_checkpoints,
        }

    def restore(self, snapshot: dict | None) -> None:
        """Reposition a fresh engine at a checkpoint (None → cold restart).

        The item stream was rebuilt from the deterministic source; the
        checkpoint only repositions the cursor within it.  The injected
        crash is disarmed so it fires only once.
        """
        self.crash_armed = False
        if snapshot is None:
            return
        self.batch_index = int(snapshot["batch_index"])
        self.free_at = float(snapshot["free_at"])
        self.receiver.restore(snapshot["receiver"])
        if self.estimator is not None and snapshot["estimator"] is not None:
            self.estimator.restore(snapshot["estimator"])
            self._rate_times = [0.0]
            self._rates = [self.estimator.rate]
        self.state = StreamState.restore(snapshot["state"])
        self.committed = [int(b) for b in snapshot["committed"]]
        self.stats = [BatchStats.from_dict(d) for d in snapshot["stats"]]
        self.n_checkpoints = int(snapshot["n_checkpoints"])


# -- orchestration -----------------------------------------------------------

def _cleanup_stale_batches(dfs: "DFSClient", root: str, last_committed: int) -> int:
    """Drop per-batch outputs beyond the checkpoint horizon.

    A crashed driver may have written batches after the last checkpoint;
    recovery re-cuts those batches (possibly differently, if the rate
    history differs), so any leftover files would double-count at assembly.
    """
    import re

    stale = set()
    pattern = re.compile(re.escape(root) + r"/batch-(\d+)/")
    for path in dfs.ls(root + "/batch-"):
        m = pattern.match(path)
        if m and int(m.group(1)) > last_committed:
            stale.add(path)
    for path in sorted(stale):
        dfs.delete(path)
    return len(stale)


def stream_observations(
    observations: list["Observation"],
    config: "StreamingConfig",
    *,
    dfs: "DFSClient | None" = None,
    ctx: "SparkletContext | None" = None,
    model: object | None = None,
    obs: "ObsSession | None" = None,
) -> StreamingResult:
    """Stream prebuilt observations through the micro-batch engine.

    Handles the full lifecycle: receiver construction, the driver loop,
    injected-crash recovery from the last DFS checkpoint, and final
    assembly of the output by reading every committed batch's ML files
    back from the DFS (driver memory is never trusted across a crash).
    """
    from repro.cluster import open_cluster
    from repro.memo.config import resolve_memo

    session = ObsSession.from_config(obs)
    pipe = config.pipeline
    memo = resolve_memo(pipe.memo_config, fault_config=pipe.fault_config)
    if model is not None:
        scorer = StreamScorer(model)
    elif config.model_path is not None:
        scorer = StreamScorer.from_path(config.model_path)
    else:
        scorer = None
    with open_cluster(pipe.execution, session, app_name="streaming", memo=memo,
                      dfs=dfs, ctx=ctx) as (dfs, ctx):
        n_recoveries, snapshot = 0, None
        while True:
            engine = MicroBatchEngine.for_observations(
                observations, config, dfs=dfs, ctx=ctx, scorer=scorer,
                obs=session,
            )
            if n_recoveries:
                engine.restore(snapshot)
            try:
                engine.run()
                break
            except SimulatedDriverCrash as crash:
                n_recoveries += 1
                snapshot = read_checkpoint(dfs, config.checkpoint_path)
                last_committed = snapshot["batch_index"] if snapshot else 0
                n_stale = _cleanup_stale_batches(dfs, config.batch_root,
                                                 last_committed)
                session.emit(DRIVER_RECOVERED, crashed_at_batch=crash.batch_id,
                             restored_batch=last_committed,
                             cold_restart=snapshot is None,
                             n_stale_outputs=n_stale)

        result = engine.result(
            observations, memo, kind="streaming", n_recoveries=n_recoveries,
            provenance={
                "survey": observations[0].config.name if observations else None,
            },
            obs_seq_range=(0, session.log.n_events) if session.enabled else None,
        )
    session.flush()
    return result


__all__ = [
    "BatchStats",
    "LinearCostModel",
    "MicroBatchEngine",
    "PreparedBatch",
    "SimulatedDriverCrash",
    "StreamingResult",
    "canonical_ml_text",
    "stream_observations",
]
