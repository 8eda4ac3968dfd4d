"""Parallel executor backend benchmark: speedup-vs-workers curves.

Times the same jobs under ``backend="serial"`` and ``backend="parallel"``
at 1/2/4/8 workers, asserting byte identity of every output against the
serial reference before any speedup is reported.  Two workloads:

- **dedisp_boxcar** — one map stage running ``plan_dedispersion(...).block()``
  + ``boxcar_snr`` + ``find_peaks`` over filterbank blocks shipped through
  the shared-memory transport.  This is the stage the CI smoke gate runs.
- **drapid_inmem** — the full D-RAPID identification stage
  (``repro.api.run_drapid``) against the in-memory DFS.  Pure CPU: on a
  single-core host the curve is flat by construction.

Every number is tagged.  ``measured`` rows are real wall-clock on this
host.  ``modelled`` rows answer "what would a cluster with real disks and
a real network do?" the one way the repo spells modelled time:
``simulate_job(serial JobMetrics, ClusterConfig(num_executors=n))`` at
1/2/4/8 executors over the *measured* serial run's task metrics.  The two
never share a row or a gate: the gate is byte identity (measured runs)
plus modelled speedup at 2 executors > 1.

Writes ``BENCH_parallel_backend.json`` at the repo root (curves, per-stage
timings, identity checksums, host info) and a table under
``benchmarks/results/``.

Run:    PYTHONPATH=src python benchmarks/bench_parallel_backend.py [--smoke]
or:     PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_parallel_backend.py -q
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from pathlib import Path

import numpy as np

from _bench_utils import emit, format_table, write_result
from repro.api import PipelineConfig, run_drapid
from repro.astro import GBT350DRIFT, generate_observation, synthesize_population
from repro.astro.kernels import boxcar_snr, find_peaks, plan_dedispersion
from repro.sparklet import ClusterConfig, simulate_job
from repro.sparklet.context import SparkletContext
from repro.sparklet.executor import get_pool

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_parallel_backend.json"

WORKER_COUNTS = (1, 2, 4, 8)
SEED = 3


# ---------------------------------------------------------------------------
# Workload 1: dedispersion + boxcar map stage
# ---------------------------------------------------------------------------
def _make_blocks(n_blocks: int, n_chan: int, n_samp: int, n_dms: int):
    rng = np.random.default_rng(SEED)
    freqs = np.linspace(420.0, 350.0, n_chan)  # descending: f_ref = top of band
    dms = np.linspace(0.0, 120.0, n_dms)
    blocks = [
        (i, rng.normal(size=(n_chan, n_samp)), freqs, dms) for i in range(n_blocks)
    ]
    return blocks


def _search_block(args):
    bid, data, freqs, dms = args
    series = plan_dedispersion(data, freqs, float(freqs[0]), 1e-3, dms).block()
    best, n_peaks = -np.inf, 0
    for row in series:
        snr, _widths = boxcar_snr(row)
        n_peaks += int(find_peaks(snr, 6.0).size)
        best = max(best, float(snr.max()))
    return bid, round(best, 9), n_peaks


def _dedisp_job(blocks, backend, workers):
    ctx = SparkletContext(app_name="bench-dedisp", backend=backend,
                          num_workers=workers)
    try:
        t0 = time.perf_counter()
        out = ctx.parallelize(blocks, len(blocks)).map(_search_block).collect()
        wall = time.perf_counter() - t0
        metrics = ctx.all_job_metrics()
    finally:
        ctx.close()
    return out, wall, metrics


# ---------------------------------------------------------------------------
# Workload 2: the D-RAPID identification stage
# ---------------------------------------------------------------------------
def _make_observations(n_pulsars: int, n_observations: int,
                       num_partitions: int = 8):
    """Fixed-length survey pointings, two sources in beam each.

    Uniform observation sizes (the realistic survey case — pointings have
    fixed dwell time) rather than ``generate_observations``'s
    random in-beam draw, so the speedup curve measures the backend, not
    the luck of one giant observation landing on one worker.
    """
    config = PipelineConfig(seed=SEED, num_partitions=num_partitions)
    pulsars = synthesize_population(n_pulsars, seed=SEED)
    survey = GBT350DRIFT
    observations = [
        generate_observation(
            survey,
            [pulsars[i % n_pulsars], pulsars[(i + 1) % n_pulsars]],
            mjd=55000.0 + i,
            beam=i % survey.n_beams,
            n_noise_clusters=40,
            n_rfi_bursts=2,
            grid_coarsen=10.0,
            seed=SEED + 17 * i,
        )
        for i in range(n_observations)
    ]
    return config, observations


def _drapid_job(config, observations, backend, workers):
    ctx = SparkletContext(app_name="bench-drapid", default_parallelism=4,
                          backend=backend, num_workers=workers)
    try:
        t0 = time.perf_counter()
        result = run_drapid(config, observations, ctx=ctx)
        wall = time.perf_counter() - t0
        metrics = ctx.all_job_metrics()
    finally:
        ctx.close()
    return result, wall, metrics


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------
def _fingerprint(obj) -> str:
    if hasattr(obj, "pulse_batch"):  # DRapidResult
        h = hashlib.sha256(np.ascontiguousarray(obj.pulse_batch.features).tobytes())
        h.update(str(obj.n_pulses).encode())
        return h.hexdigest()
    return hashlib.sha256(repr(sorted(obj)).encode()).hexdigest()


def _stage_table(metrics) -> list[dict]:
    """Per-stage timing rollup from a run's JobMetrics."""
    return [
        {
            "stage_id": s.stage_id,
            "name": s.name,
            "n_tasks": len(s.tasks),
            "total_task_s": round(s.total_task_seconds, 4),
            "max_task_s": round(s.max_task_seconds, 4),
            "workers": sorted({t.worker_id for t in s.tasks if t.worker_id}),
        }
        for s in metrics.stages
    ]


def _modelled_curve(serial_metrics) -> list[dict]:
    """``simulate_job`` over the measured serial run, 1/2/4/8 executors."""
    elapsed = {
        n: simulate_job(serial_metrics, ClusterConfig(num_executors=n)).elapsed_s
        for n in WORKER_COUNTS
    }
    return [
        {
            "kind": "modelled",
            "executors": n,
            "elapsed_s": round(elapsed[n], 4),
            "speedup": round(elapsed[WORKER_COUNTS[0]] / elapsed[n], 3),
        }
        for n in WORKER_COUNTS
    ]


def _curve(run_once, workers_counts):
    """Serial baseline then the worker sweep; asserts identity throughout."""
    ref, serial_wall, serial_metrics = run_once("serial", None)
    ref_print = _fingerprint(ref)
    runs = []
    for w in workers_counts:
        out, wall, metrics = run_once("parallel", w)
        assert _fingerprint(out) == ref_print, (
            f"parallel({w}) output diverged from serial"
        )
        runs.append({
            "kind": "measured",
            "workers": w,
            "wall_s": round(wall, 4),
            "speedup": round(serial_wall / wall, 3),
            "stage_timings": _stage_table(metrics),
        })
    return {
        "serial_wall_s": round(serial_wall, 4),
        "serial_stage_timings": _stage_table(serial_metrics),
        "byte_identical": True,
        "checksum": ref_print,
        "runs": runs,
        "modelled": _modelled_curve(serial_metrics),
    }


def _warm_pool(blocks):
    """Spawn all workers and warm their imports before any timed run."""
    get_pool().ensure(max(WORKER_COUNTS))
    _dedisp_job(blocks[:2], "parallel", max(WORKER_COUNTS))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------
def bench_dedisp_boxcar(smoke: bool) -> dict:
    if smoke:
        blocks = _make_blocks(n_blocks=6, n_chan=32, n_samp=3000, n_dms=16)
        counts = (1, 2)
    else:
        blocks = _make_blocks(n_blocks=8, n_chan=48, n_samp=4096, n_dms=24)
        counts = WORKER_COUNTS
    _warm_pool(blocks)
    out = _curve(lambda b, w: _dedisp_job(blocks, b, w), counts)
    out.update({"workload": "dedisp_boxcar", "n_blocks": len(blocks)})
    return out


def bench_drapid() -> dict:
    # D-RAPID keys its join on the per-observation prefix, so partition
    # balance needs key cardinality well above the default parallelism —
    # the paper's workloads span many beams/observations and assign 32
    # partitions per core (Section 6.1).  16 observations over 32
    # partitions keeps the hash spread honest.
    config, observations = _make_observations(
        n_pulsars=6, n_observations=16, num_partitions=32
    )
    out = _curve(
        lambda b, w: _drapid_job(config, observations, b, w), WORKER_COUNTS
    )
    out.update({"workload": "drapid_inmem", "n_observations": len(observations)})
    return out


def run_all(smoke: bool = False) -> dict:
    results: dict = {
        "benchmark": "parallel_backend",
        "generated_by": "benchmarks/bench_parallel_backend.py",
        "smoke": smoke,
        "host": {"cpu_count": os.cpu_count(), "platform": sys.platform},
        "workloads": {},
    }

    dedisp = bench_dedisp_boxcar(smoke)
    results["workloads"]["dedisp_boxcar"] = dedisp
    if not smoke:
        results["workloads"]["drapid_inmem"] = bench_drapid()

    # _curve has already asserted serial ≡ parallel on every measured run.
    modelled2 = next(r["speedup"] for r in dedisp["modelled"] if r["executors"] == 2)
    results["gate"] = {
        "stage": "dedisp_boxcar",
        "byte_identical": all(w["byte_identical"]
                              for w in results["workloads"].values()),
        "modelled_speedup_at_2": modelled2,
        "pass": modelled2 > 1.0,
    }

    note = write_result(RESULT_JSON, results)

    rows = []
    for name, wl in results["workloads"].items():
        rows.append([name, "measured", "serial", wl["serial_wall_s"], "1.000x"])
        rows += [
            [name, "measured", f'parallel({r["workers"]})', r["wall_s"],
             f'{r["speedup"]}x']
            for r in wl["runs"]
        ]
        rows += [
            [name, "modelled", f'simulate_job({r["executors"]})', r["elapsed_s"],
             f'{r["speedup"]}x']
            for r in wl["modelled"]
        ]
    table = format_table(["workload", "kind", "mode", "seconds", "speedup"], rows)
    emit("BENCH_parallel_backend", table + f"\n\n{note}")
    return results


def test_parallel_backend_smoke():
    """CI gate: serial ≡ parallel bytes; modelled speedup at 2 executors > 1."""
    results = run_all(smoke=True)
    gate = results["gate"]
    assert gate["byte_identical"] and gate["pass"], gate
    assert results["smoke"]


if __name__ == "__main__":
    out = run_all(smoke="--smoke" in sys.argv[1:])
    if not out["gate"]["pass"]:
        sys.exit(f"gate failed: {out['gate']}")
