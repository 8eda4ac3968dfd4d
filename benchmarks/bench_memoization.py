"""Memoization benchmark: what does a warm cache buy, and is it honest?

Four arms over the same D-RAPID workload (same observations, same seed):

1. **uncached** — memoization off; the recompute baseline.
2. **cold**     — memo on, empty store; measures store/hash overhead.
3. **warm**     — memo on, populated store; every job key hits and no
   task runs.  The acceptance gate is warm ≥ 5× faster than cold.
4. **prefix**   — memo on, populated store, but SearchParams perturbed:
   the upstream parse/partition lineage is shared, the search is not, so
   every job key misses and the run recomputes (the store keys whole jobs
   only; a perturbed config must never be served a stored result).

Each round runs the four arms once, in that order; each arm is reported as
the median of 11 rounds at full scale with its interquartile range beside
it.  Hits and misses are counted from the ``cache_hit``/``cache_miss``
events of the warm and prefix runs' event logs.

Byte-identity is asserted before any number is reported: hit output must
equal miss output must equal uncached output, row for row, and the prefix
run must equal the uncached perturbed run — a cache that is fast but wrong
fails here, not in a downstream experiment.  The
candidate arm then records a run into the SQLite archive and round-trips
one stored candidate through ``reproduce_candidate``.

Writes ``BENCH_memoization.json`` at the repo root and a table under
``benchmarks/results/``.

Run:    PYTHONPATH=src python benchmarks/bench_memoization.py [--smoke]
or:     PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_memoization.py -q
"""

from __future__ import annotations

import dataclasses
import gc
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from _bench_utils import emit, format_table, write_result
from repro.api import PipelineConfig, run_drapid
from repro.astro.population import synthesize_population
from repro.astro.survey import GBT350DRIFT, generate_observation
from repro.core.search import SearchParams
from repro.memo import MemoConfig, MemoSession, reproduce_candidate
from repro.obs import ObsConfig
from repro.obs.events import CACHE_HIT, CACHE_MISS
from repro.obs.session import ObsSession

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_memoization.json"


def _make_observations(n_obs: int, obs_length_s: float, seed: int = 9):
    pulsars = synthesize_population(6, seed=seed)
    return [
        generate_observation(
            GBT350DRIFT, pulsars[: 2 + i % 3], mjd=55000.0 + i,
            beam=i % GBT350DRIFT.n_beams, seed=seed + 13 * i,
            obs_length_s=obs_length_s, n_noise_clusters=60, n_rfi_bursts=3,
        )
        for i in range(n_obs)
    ]


def _run(observations, memo_dir: str | None, params: SearchParams,
         with_obs: bool = False):
    """One run_drapid call; returns (wall_s, ml_lines, obs_session)."""
    memo_config = (
        MemoConfig(dir=memo_dir, store_candidates=False)
        if memo_dir is not None else None
    )
    session = ObsSession(ObsConfig(enabled=True)) if with_obs else None
    config = PipelineConfig(survey="GBT350Drift", seed=3, params=params,
                            num_partitions=8, memo_config=memo_config,
                            obs_config=session)
    gc.collect()
    t0 = time.perf_counter()
    result = run_drapid(config, observations)
    wall = time.perf_counter() - t0
    return wall, result.pulse_batch.to_ml_lines(), session


def _memo_counts(obs: ObsSession) -> dict[str, int]:
    """Job-level memo hits and misses, counted from the run's event log."""
    types = [e["type"] for e in obs.events()]
    return {"memo.job_hits": types.count(CACHE_HIT),
            "memo.job_misses": types.count(CACHE_MISS)}


def _iqr(walls: list[float]) -> list[float]:
    """[first quartile, third quartile] of one arm's walls."""
    q1, _q2, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return [round(q1, 6), round(q3, 6)]


def bench_cache_arms(observations, rounds: int) -> dict:
    params = SearchParams()
    perturbed = dataclasses.replace(params, weight=params.weight + 0.05)
    memo_dir = tempfile.mkdtemp(prefix="bench-memo-")
    try:
        uncached_walls, cold_walls, warm_walls, prefix_walls = [], [], [], []
        uncached_lines = cold_lines = warm_lines = None
        warm_counters = prefix_counters = {}
        for _ in range(rounds):
            w, uncached_lines, _ = _run(observations, None, params)
            uncached_walls.append(w)
            # Cold: wipe the store so every key misses and is written.
            shutil.rmtree(memo_dir, ignore_errors=True)
            w, cold_lines, _ = _run(observations, memo_dir, params)
            cold_walls.append(w)
            w, warm_lines, obs = _run(observations, memo_dir, params,
                                      with_obs=True)
            warm_walls.append(w)
            warm_counters = _memo_counts(obs)
            # Hit ≡ miss ≡ uncached, byte for byte, every round.
            assert warm_lines == cold_lines == uncached_lines, (
                "memoized output diverged from recomputed output"
            )
            # Prefix overlap: new search params, same upstream lineage.
            w, prefix_lines, obs = _run(observations, memo_dir, perturbed,
                                        with_obs=True)
            prefix_walls.append(w)
            prefix_counters = _memo_counts(obs)
            w, uncached_pert, _ = _run(observations, None, perturbed)
            assert prefix_lines == uncached_pert, (
                "prefix-overlap output diverged from recomputed output"
            )
    finally:
        shutil.rmtree(memo_dir, ignore_errors=True)

    med = statistics.median
    return {
        "rounds": rounds,
        "uncached_wall_s": round(med(uncached_walls), 6),
        "uncached_wall_iqr_s": _iqr(uncached_walls),
        "cold_wall_s": round(med(cold_walls), 6),
        "cold_wall_iqr_s": _iqr(cold_walls),
        "warm_wall_s": round(med(warm_walls), 6),
        "warm_wall_iqr_s": _iqr(warm_walls),
        "prefix_wall_s": round(med(prefix_walls), 6),
        "prefix_wall_iqr_s": _iqr(prefix_walls),
        "warm_speedup_vs_cold": round(med(cold_walls) / med(warm_walls), 2),
        "warm_speedup_vs_uncached": round(
            med(uncached_walls) / med(warm_walls), 2
        ),
        "prefix_speedup_vs_uncached": round(
            med(uncached_walls) / med(prefix_walls), 2
        ),
        "cold_overhead_vs_uncached_pct": round(
            100.0 * (med(cold_walls) / med(uncached_walls) - 1.0), 2
        ),
        "warm_counters": warm_counters,
        "prefix_counters": prefix_counters,
        "hit_equals_miss": True,  # asserted above, every round
        "n_ml_rows": len(uncached_lines),
    }


def bench_candidate_round_trip(observations) -> dict:
    """Record a run into the candidate DB, then reproduce its top candidate."""
    memo_dir = tempfile.mkdtemp(prefix="bench-memo-cand-")
    try:
        config = PipelineConfig(survey="GBT350Drift", seed=3,
                                memo_config=MemoConfig(dir=memo_dir))
        t0 = time.perf_counter()
        run_drapid(config, observations)
        record_wall = time.perf_counter() - t0
        session = MemoSession(MemoConfig(dir=memo_dir))
        n_runs, n_candidates = session.db.counts()
        top = session.db.query(limit=1)[0]
        t0 = time.perf_counter()
        result = reproduce_candidate(session, top["candidate_id"])
        reproduce_wall = time.perf_counter() - t0
        session.close()
        assert result.ok, f"candidate reproduction failed: {result.reason}"
        return {
            "n_runs": n_runs,
            "n_candidates": n_candidates,
            "record_wall_s": round(record_wall, 6),
            "reproduce_wall_s": round(reproduce_wall, 6),
            "reproduced_candidate_id": int(top["candidate_id"]),
            "reproduce_ok": result.ok,
        }
    finally:
        shutil.rmtree(memo_dir, ignore_errors=True)


def run_all(smoke: bool = False) -> dict:
    observations = _make_observations(
        n_obs=2 if smoke else 4,
        obs_length_s=40.0 if smoke else 120.0,
    )
    # Each round runs every arm once, in the same order, so the arms'
    # medians come from interleaved samples of one stretch of the host.
    arms = bench_cache_arms(observations, rounds=2 if smoke else 11)
    candidates = bench_candidate_round_trip(observations)

    results = {
        "benchmark": "memoization",
        "generated_by": "benchmarks/bench_memoization.py",
        "smoke": smoke,
        "cache": arms,
        "candidates": candidates,
    }
    note = write_result(RESULT_JSON, results)

    table = format_table(
        ["metric", "value"],
        [
            ["ml rows", arms["n_ml_rows"]],
            ["rounds", arms["rounds"]],
            ["uncached wall s (median)", arms["uncached_wall_s"]],
            ["uncached wall s (IQR)", arms["uncached_wall_iqr_s"]],
            ["cold wall s (median)", arms["cold_wall_s"]],
            ["cold wall s (IQR)", arms["cold_wall_iqr_s"]],
            ["warm wall s (median)", arms["warm_wall_s"]],
            ["warm wall s (IQR)", arms["warm_wall_iqr_s"]],
            ["prefix wall s (median)", arms["prefix_wall_s"]],
            ["prefix wall s (IQR)", arms["prefix_wall_iqr_s"]],
            ["warm speedup vs cold", arms["warm_speedup_vs_cold"]],
            ["warm speedup vs uncached", arms["warm_speedup_vs_uncached"]],
            ["prefix speedup vs uncached", arms["prefix_speedup_vs_uncached"]],
            ["cold overhead vs uncached %", arms["cold_overhead_vs_uncached_pct"]],
            ["prefix job hits", arms["prefix_counters"]["memo.job_hits"]],
            ["hit == miss (bytes)", arms["hit_equals_miss"]],
            ["candidates recorded", candidates["n_candidates"]],
            ["reproduce round-trip ok", candidates["reproduce_ok"]],
        ],
    )
    emit("BENCH_memoization", table + f"\n\n{note}")
    return results


def test_memoization_benchmark():
    """Acceptance: warm run_drapid ≥5× cold, hit ≡ miss byte-identity,
    candidate reproduce round-trips."""
    results = run_all(smoke=True)
    cache = results["cache"]
    assert cache["hit_equals_miss"]
    assert cache["warm_speedup_vs_cold"] >= 5.0, cache
    assert cache["warm_speedup_vs_uncached"] >= 5.0, cache
    assert cache["warm_counters"]["memo.job_hits"] >= 1
    assert cache["prefix_counters"]["memo.job_hits"] == 0
    assert results["candidates"]["reproduce_ok"]
    assert results["smoke"]


if __name__ == "__main__":
    import sys

    argv = sys.argv[1:]
    results = run_all(smoke="--smoke" in argv)
    if "--gate" in argv:
        # CI smoke gate: a looser warm-speedup floor for noisy shared
        # runners (the pytest entry point gates the full 5x).
        floor = float(argv[argv.index("--gate") + 1])
        cache = results["cache"]
        assert cache["hit_equals_miss"]
        assert cache["warm_speedup_vs_cold"] >= floor, cache
        assert cache["prefix_counters"]["memo.job_hits"] == 0, cache
        assert results["candidates"]["reproduce_ok"]
