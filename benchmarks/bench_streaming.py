"""Streaming benchmark: throughput, batch latency, and backpressure.

Three measurements against the micro-batch engine:

1. **Equivalence check** — before timing anything, the streamed output
   must be byte-identical to the offline ``run_pipeline`` output on the
   same config and seed.  A vocabulary or watermark drift fails CI here,
   even at smoke scale, before any number is recorded.
2. **Sustained throughput + latency** — wall-clock rows/s through the
   whole engine (receiver → state → per-batch D-RAPID job → serving) and
   the p50/p99 *simulated* total batch delay (completion − boundary).
3. **Backpressure under 2× overload** — the source arrives at twice the
   cost model's capacity.  With the PID estimator on, the scheduling
   queue must stay bounded; with it off, the queue grows with stream
   length.  Both arms must still be byte-identical to offline.

Writes ``BENCH_streaming.json`` at the repo root and a table under
``benchmarks/results/``.

Run:    PYTHONPATH=src python benchmarks/bench_streaming.py [--smoke]
or:     PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_streaming.py -q
"""

from __future__ import annotations

import time
from pathlib import Path

from _bench_utils import emit, format_table, write_result
from repro.api import PipelineConfig, StreamingConfig, run_pipeline, run_streaming
from repro.streaming import LinearCostModel, canonical_ml_text

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_streaming.json"


def _pipeline(smoke: bool) -> PipelineConfig:
    return PipelineConfig(
        n_pulsars=3 if smoke else 6,
        n_observations=1 if smoke else 3,
        seed=11,
    )


def check_equivalence(smoke: bool) -> dict:
    """Streamed output must equal offline output byte-for-byte."""
    pipeline = _pipeline(smoke)
    offline = canonical_ml_text(run_pipeline(pipeline).drapid.pulse_batch)
    result = run_streaming(StreamingConfig(
        pipeline=pipeline, batch_interval_s=0.25, arrival_rate=120.0,
        checkpoint_interval=6,
    ))
    identical = result.canonical_ml_text() == offline
    assert identical, "streamed output diverged from offline run_pipeline"
    return {
        "n_batches": result.n_batches,
        "n_pulses": result.n_pulses,
        "max_batches_spanned": result.max_batches_spanned,
        "byte_identical": identical,
    }


def bench_throughput(smoke: bool) -> dict:
    """Wall-clock rows/s through the engine + simulated batch delays."""
    config = StreamingConfig(
        pipeline=_pipeline(smoke), batch_interval_s=0.5,
        arrival_rate=1000.0 if smoke else 4000.0,
    )
    t0 = time.perf_counter()
    result = run_streaming(config)
    wall_s = time.perf_counter() - t0
    n_rows = sum(b.n_rows for b in result.batches)
    delays = sorted(b.total_delay_s for b in result.batches)
    p50 = delays[len(delays) // 2]
    p99 = delays[min(len(delays) - 1, int(len(delays) * 0.99))]
    return {
        "n_batches": result.n_batches,
        "n_rows": n_rows,
        "wall_s": round(wall_s, 3),
        "rows_per_s_wall": round(n_rows / wall_s),
        "p50_total_delay_s": round(p50, 4),
        "p99_total_delay_s": round(p99, 4),
        "checkpoints_written": result.checkpoints_written,
    }


def bench_backpressure(smoke: bool) -> dict:
    """2× overload: queue depth bounded with PID, growing without.

    The linear cost model pins capacity at 200 rows/s while the source
    arrives at 400 rows/s, so the overload factor is exactly 2 and the
    contrast between the arms is deterministic.  This arm needs a stream
    long enough for the unthrottled queue to actually build, so it uses
    its own multi-observation workload even at smoke scale.
    """
    overload = dict(
        pipeline=PipelineConfig(
            n_pulsars=3, n_observations=2 if smoke else 4, seed=7
        ),
        batch_interval_s=0.5,
        arrival_rate=400.0,
        cost_model=LinearCostModel(rows_per_s=200.0, fixed_s=0.01),
    )
    with_bp = run_streaming(StreamingConfig(backpressure=True, **overload))
    without = run_streaming(StreamingConfig(backpressure=False, **overload))
    assert with_bp.max_queue_depth < without.max_queue_depth, (
        "backpressure failed to bound the scheduling queue"
    )
    final_rates = [b.rate_limit for b in with_bp.batches[-3:]]
    return {
        "arrival_rate": 400.0,
        "capacity_rows_per_s": 200.0,
        "overload_factor": 2.0,
        "with_backpressure": {
            "n_batches": with_bp.n_batches,
            "max_queue_depth": with_bp.max_queue_depth,
            "final_rate_limit": round(final_rates[-1], 1),
        },
        "without_backpressure": {
            "n_batches": without.n_batches,
            "max_queue_depth": without.max_queue_depth,
        },
    }


def run_all(smoke: bool = False) -> dict:
    equivalence = check_equivalence(smoke)
    throughput = bench_throughput(smoke)
    backpressure = bench_backpressure(smoke)

    results = {
        "benchmark": "streaming",
        "generated_by": "benchmarks/bench_streaming.py",
        "smoke": smoke,
        "equivalence": equivalence,
        "throughput": throughput,
        "backpressure": backpressure,
    }
    note = write_result(RESULT_JSON, results)

    bp_with = backpressure["with_backpressure"]
    bp_without = backpressure["without_backpressure"]
    table = format_table(
        ["metric", "value"],
        [
            ["streamed == offline", equivalence["byte_identical"]],
            ["widest cluster span (batches)", equivalence["max_batches_spanned"]],
            ["throughput rows/s (wall)", throughput["rows_per_s_wall"]],
            ["p50 batch delay (sim s)", throughput["p50_total_delay_s"]],
            ["p99 batch delay (sim s)", throughput["p99_total_delay_s"]],
            ["2x overload maxq, PID on", bp_with["max_queue_depth"]],
            ["2x overload maxq, PID off", bp_without["max_queue_depth"]],
            ["PID final rate (cap 200/s)", bp_with["final_rate_limit"]],
        ],
    )
    emit("BENCH_streaming", table + f"\n\n{note}")
    return results


def test_streaming_benchmark():
    """Acceptance: byte identity holds and backpressure bounds the queue."""
    results = run_all(smoke=True)
    assert results["equivalence"]["byte_identical"]
    assert results["equivalence"]["max_batches_spanned"] >= 3
    bp = results["backpressure"]
    assert bp["with_backpressure"]["max_queue_depth"] <= 3
    assert (bp["without_backpressure"]["max_queue_depth"]
            > bp["with_backpressure"]["max_queue_depth"])
    assert results["benchmark"] == "streaming" and results["smoke"]


if __name__ == "__main__":
    import sys

    run_all(smoke="--smoke" in sys.argv[1:])
