"""Micro-batch streaming: D-RAPID as a continuously-fed, low-latency service.

The paper's end goal — survey-scale, real-time single pulse search — needs
more than a batch pipeline.  This subpackage layers a Spark-Streaming-style
engine over the existing stack:

- :mod:`~repro.streaming.receiver` — seeded deterministic replay of an
  observation set as timestamped, rate-limited blocks;
- :mod:`~repro.streaming.state` — pending clusters carried across batch
  boundaries, finalized by event-time watermarks;
- :mod:`~repro.streaming.engine` — the micro-batch driver loop (scheduling
  delay vs. processing time on a simulated clock, per-batch D-RAPID jobs
  through Sparklet);
- :mod:`~repro.streaming.backpressure` — Spark's PID rate estimator;
- :mod:`~repro.streaming.checkpoint` — durable engine state on the DFS and
  exactly-once crash recovery;
- :mod:`~repro.streaming.serving` — in-stream classification of finalized
  pulses, with a versioned :class:`~repro.streaming.serving.ModelCache`
  whose hot-swaps take effect at batch boundaries;
- :mod:`~repro.streaming.sessions` — the multi-tenant serving tier: N
  engines multiplexed on one driver under fair-share pools with admission
  control.

The governing invariant, asserted by tests and a hypothesis property
suite: concatenated streamed output is **byte-identical** to the offline
``run_pipeline`` output on the same data and seed (under the canonical
(key, cluster) order — see :func:`~repro.streaming.engine.canonical_ml_text`).

Use :func:`repro.api.run_streaming` rather than these pieces directly.
"""

from repro.streaming.backpressure import PIDRateEstimator
from repro.streaming.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.streaming.engine import (
    BatchStats,
    LinearCostModel,
    MicroBatchEngine,
    SimulatedDriverCrash,
    StreamingResult,
    canonical_ml_text,
    stream_observations,
)
from repro.streaming.engine import PreparedBatch
from repro.streaming.receiver import Block, ReplayReceiver, StreamItem, build_stream
from repro.streaming.serving import ModelCache, StreamScorer
from repro.streaming.sessions import (
    AdmissionConfig,
    SessionInfo,
    SessionManager,
    weighted_fair_shares,
)
from repro.streaming.state import FinalizedUnit, StreamState

__all__ = [
    "AdmissionConfig",
    "BatchStats",
    "Block",
    "CheckpointError",
    "FinalizedUnit",
    "LinearCostModel",
    "MicroBatchEngine",
    "ModelCache",
    "PIDRateEstimator",
    "PreparedBatch",
    "ReplayReceiver",
    "SessionInfo",
    "SessionManager",
    "SimulatedDriverCrash",
    "StreamScorer",
    "StreamingResult",
    "StreamItem",
    "StreamState",
    "build_stream",
    "canonical_ml_text",
    "read_checkpoint",
    "stream_observations",
    "weighted_fair_shares",
    "write_checkpoint",
]
