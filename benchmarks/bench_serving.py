"""Serving-tier benchmark: fairness and latency under multi-tenant load.

Three measurements against the fair-share serving tier:

1. **Identity check** — before timing anything, every tenant's canonical
   output under concurrent serving must equal its solo ``run_streaming``
   output.  A pool-ordering or state-isolation bug fails CI here.
2. **Tenants × arrival-rate grid** — fleets of N tenants at aggregate
   demand 0.5×/1×/2× the driver's capacity; per-cell p50/p99 scheduling
   delay and wall time show how contention turns into queueing.
3. **Fairness gate at 2× overload** — tenants weighted 2:1(:1) on
   identical workloads.  While every tenant is still streaming, the
   accumulated driver service per tenant must track the configured
   weights within ±20%, and no tenant may be starved (zero service).

Writes ``BENCH_serving.json`` at the repo root and a table under
``benchmarks/results/``.

Run:    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]
or:     PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_serving.py -q
"""

from __future__ import annotations

import time
from pathlib import Path

from _bench_utils import emit, format_table, write_result
from repro.api import (
    AdmissionConfig,
    PipelineConfig,
    ServingConfig,
    StreamingConfig,
    TenantConfig,
    run_serving,
    run_streaming,
)
from repro.streaming import LinearCostModel

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_serving.json"

#: The shared driver's sustainable throughput for every arm (rows/s).
CAPACITY = 1000.0
COST_MODEL = LinearCostModel(rows_per_s=CAPACITY, fixed_s=0.02)


def _tenant(i: int, *, arrival_rate: float, weight: float = 1.0,
            smoke: bool = True) -> TenantConfig:
    return TenantConfig(
        tenant_id=f"tenant-{i}",
        streaming=StreamingConfig(
            pipeline=PipelineConfig(
                n_pulsars=3, n_observations=1 if smoke else 2, seed=11 + i,
            ),
            batch_interval_s=0.5, arrival_rate=arrival_rate,
            cost_model=COST_MODEL, checkpoint_interval=8,
        ),
        weight=weight,
    )


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def check_identity(smoke: bool) -> dict:
    """Every tenant's concurrent output must equal its solo output."""
    tenants = tuple(
        _tenant(i, arrival_rate=CAPACITY, weight=1.0 + (i % 2), smoke=smoke)
        for i in range(2)
    )
    result = run_serving(ServingConfig(
        tenants=tenants, admission=AdmissionConfig(mode="off"),
    ))
    identical = all(
        result.canonical_ml_text(t.tenant_id)
        == run_streaming(t.streaming).canonical_ml_text()
        for t in tenants
    )
    assert identical, "serving output diverged from solo run_streaming"
    return {"n_tenants": len(tenants), "byte_identical": identical}


def bench_grid(smoke: bool) -> list[dict]:
    """Fleets of N tenants at aggregate demand 0.5×/1×/2× capacity."""
    fleet_sizes = [2] if smoke else [2, 4]
    cells = []
    for n_tenants in fleet_sizes:
        for mult in (0.5, 1.0, 2.0):
            per_tenant_rate = mult * CAPACITY / n_tenants
            tenants = tuple(
                _tenant(i, arrival_rate=per_tenant_rate, smoke=smoke)
                for i in range(n_tenants)
            )
            t0 = time.perf_counter()
            result = run_serving(ServingConfig(
                tenants=tenants, admission=AdmissionConfig(mode="off"),
            ))
            wall_s = time.perf_counter() - t0
            delays = [b.scheduling_delay_s
                      for res in result.tenants.values() for b in res.batches]
            cells.append({
                "n_tenants": n_tenants,
                "overload_factor": mult,
                "arrival_rate_per_tenant": per_tenant_rate,
                "n_batches": result.n_batches,
                "p50_sched_delay_s": round(_percentile(delays, 0.50), 4),
                "p99_sched_delay_s": round(_percentile(delays, 0.99), 4),
                "wall_s": round(wall_s, 3),
            })
    return cells


def bench_fairness(smoke: bool) -> dict:
    """2× overload, weights 2:1(:1): service tracks weights, nobody starves.

    Total service per tenant is equal once every stream drains (identical
    workloads), so fairness is measured over the *contention window* — up
    to the moment the first tenant finishes.  Within that window the fair
    scheduler must deliver service in proportion to pool weights.
    """
    n_tenants = 2 if smoke else 3
    weights = [2.0] + [1.0] * (n_tenants - 1)
    per_tenant_rate = 2.0 * CAPACITY / n_tenants  # aggregate = 2× capacity
    tenants = tuple(
        _tenant(i, arrival_rate=per_tenant_rate, weight=weights[i],
                smoke=smoke)
        for i in range(n_tenants)
    )
    result = run_serving(ServingConfig(
        tenants=tenants, admission=AdmissionConfig(mode="off"),
    ))
    # Contention window: until the first tenant drains its stream.
    t_first = min(max(b.completed_s for b in res.batches)
                  for res in result.tenants.values())
    service = {
        tid: sum(b.processing_s for b in res.batches
                 if b.completed_s <= t_first)
        for tid, res in result.tenants.items()
    }
    total = sum(service.values())
    shares = {tid: s / total for tid, s in service.items()}
    expected = {t.tenant_id: t.weight / sum(weights) for t in tenants}
    max_rel_err = max(
        abs(shares[tid] - expected[tid]) / expected[tid] for tid in shares
    )
    starved = sorted(tid for tid, s in service.items() if s == 0.0)
    per_tenant = []
    for t in tenants:
        res = result.tenants[t.tenant_id]
        delays = [b.scheduling_delay_s for b in res.batches]
        per_tenant.append({
            "tenant": t.tenant_id,
            "weight": t.weight,
            "share": round(shares[t.tenant_id], 4),
            "expected_share": round(expected[t.tenant_id], 4),
            "n_batches": res.n_batches,
            "p99_sched_delay_s": round(_percentile(delays, 0.99), 4),
        })
    return {
        "overload_factor": 2.0,
        "weights": weights,
        "contention_window_s": round(t_first, 3),
        "per_tenant": per_tenant,
        "max_relative_share_error": round(max_rel_err, 4),
        "share_tolerance": 0.20,
        "shares_within_tolerance": max_rel_err <= 0.20,
        "starved_tenants": starved,
    }


def run_all(smoke: bool = False) -> dict:
    identity = check_identity(smoke)
    grid = bench_grid(smoke)
    fairness = bench_fairness(smoke)

    results = {
        "benchmark": "serving",
        "generated_by": "benchmarks/bench_serving.py",
        "smoke": smoke,
        "capacity_rows_per_s": CAPACITY,
        "identity": identity,
        "grid": grid,
        "fairness": fairness,
    }
    note = write_result(RESULT_JSON, results)

    grid_table = format_table(
        ["tenants", "overload", "batches", "p50 delay s", "p99 delay s",
         "wall s"],
        [[c["n_tenants"], c["overload_factor"], c["n_batches"],
          c["p50_sched_delay_s"], c["p99_sched_delay_s"], c["wall_s"]]
         for c in grid],
    )
    fair_table = format_table(
        ["tenant", "weight", "share", "expected", "batches", "p99 delay s"],
        [[r["tenant"], r["weight"], r["share"], r["expected_share"],
          r["n_batches"], r["p99_sched_delay_s"]]
         for r in fairness["per_tenant"]],
    )
    emit(
        "BENCH_serving",
        grid_table
        + "\n\nfairness at 2x overload (weights "
        + ":".join(str(int(w)) for w in fairness["weights"]) + "):\n"
        + fair_table
        + f"\nmax relative share error: {fairness['max_relative_share_error']}"
        + f" (tolerance {fairness['share_tolerance']})"
        + f"\nstarved tenants: {fairness['starved_tenants'] or 'none'}"
        + f"\n\n{note}",
    )
    return results


def test_serving_benchmark():
    """Acceptance: identity holds, shares track weights, nobody starves."""
    results = run_all(smoke=True)
    assert results["identity"]["byte_identical"]
    fairness = results["fairness"]
    assert fairness["starved_tenants"] == [], "a tenant was starved at 2x overload"
    assert fairness["shares_within_tolerance"], (
        f"weighted shares off by {fairness['max_relative_share_error']:.1%} "
        f"(> {fairness['share_tolerance']:.0%})"
    )
    assert results["benchmark"] == "serving" and results["smoke"]


if __name__ == "__main__":
    import sys

    run_all(smoke="--smoke" in sys.argv[1:])
