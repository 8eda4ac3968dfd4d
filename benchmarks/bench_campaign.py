"""Campaign benchmark: drift latency, recall recovery, determinism.

Runs the seeded three-phase campaign (quiet baseline → RFI storm season →
a half-gain CHIME tenant joining) with and without the online-retraining
controller, and reports the numbers the subsystem exists to move:

1. **Drift latency** — global batches between each regime change and its
   drift declaration (storm onset and newcomer arrival).
2. **Recall recovery** — the newcomer's injected-pulse recall under the
   final served model, retrain-on vs the no-retrain ablation, against the
   anchor's quiet-baseline recall.  The gate: retrain-on recovers to
   within 5 points of baseline while the ablation stays degraded.
3. **Determinism** — the canonical report checksum must be identical
   across a repeat run (and across execution backends, covered by the
   test suite); the checksum is recorded in ``BENCH_campaign.json``, and
   the smoke run fails when the report's checksum differs from it (the
   campaign has one size, so the smoke run is the full run).

Writes ``BENCH_campaign.json`` at the repo root (full runs only; a
``--smoke`` run, the CI gate, leaves it alone) and a table under
``benchmarks/results/``.

Run:    PYTHONPATH=src python benchmarks/bench_campaign.py [--smoke]
or:     PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_campaign.py -q
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from _bench_utils import emit, format_table, write_result
from repro.api import run_campaign
from repro.campaign import CampaignConfig, RetrainConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_campaign.json"

SEED = 0
MARGIN = 0.05
LATENCY_BUDGET = 12


def _run(retrain: bool):
    cfg = CampaignConfig(scenario="three-phase", seed=SEED)
    if not retrain:
        cfg = dataclasses.replace(
            cfg, retrain=dataclasses.replace(RetrainConfig(), enabled=False)
        )
    t0 = time.perf_counter()
    result = run_campaign(cfg)
    return result, time.perf_counter() - t0


def _drift_latencies(report) -> dict[int, int | None]:
    """Phase index → batches from phase start to first drift declaration."""
    out: dict[int, int | None] = {}
    for p, phase in enumerate(report["phases"]):
        if p == 0:
            continue
        start = phase["started_at_global_batch"]
        hits = [d["global_batch"] - start
                for d in report["drift_timeline"] if d["phase"] == p]
        out[p] = min(hits) if hits else None
    return out


def run_all(smoke: bool = False) -> dict:
    # One campaign size (a run takes seconds); smoke only decides whether
    # the committed result is rewritten.
    on, wall_on = _run(retrain=True)
    off, wall_off = _run(retrain=False)
    again, _ = _run(retrain=True)

    baseline = on.phase_metrics("gbt", 0)["recall"]
    recovered = on.phase_metrics("chime", 2)["recall_final_model"]
    stale = off.phase_metrics("chime", 2)["recall_final_model"]
    latencies = _drift_latencies(on.report)

    results = {
        "benchmark": "campaign",
        "smoke": smoke,
        "scenario": "three-phase",
        "seed": SEED,
        "n_batches": on.report["n_batches"],
        "baseline_recall": baseline,
        "recovered_recall": recovered,
        "ablation_recall": stale,
        "recovery_margin": round(recovered - (baseline - MARGIN), 6),
        "drift_latency_batches": {str(p): v for p, v in latencies.items()},
        "latency_budget_batches": LATENCY_BUDGET,
        "n_drift_detections": on.report["n_drift_detections"],
        "n_retrains": on.report["n_retrains"],
        "n_swaps": on.report["n_swaps"],
        "checksum": on.checksum(),
        "deterministic_repeat": on.checksum() == again.checksum(),
        "wall_s_retrain_on": round(wall_on, 3),
        "wall_s_retrain_off": round(wall_off, 3),
    }
    note = write_result(RESULT_JSON, results)

    table = format_table(
        ["arm", "chime recall@final", "gbt recall p0", "retrains", "swaps"],
        [
            ["retrain-on", recovered, baseline,
             on.report["n_retrains"], on.report["n_swaps"]],
            ["no-retrain", stale, baseline, 0, 0],
        ],
    )
    lat_table = format_table(
        ["phase", "drift latency (batches)", "budget"],
        [[p, "miss" if v is None else v, LATENCY_BUDGET]
         for p, v in sorted(latencies.items())],
    )
    emit(
        "BENCH_campaign",
        table
        + "\n\ndrift detection latency:\n" + lat_table
        + f"\n\nreport checksum: {results['checksum']}"
        + f"\ndeterministic repeat: {results['deterministic_repeat']}"
        + f"\n\n{note}",
    )
    return results


def test_campaign_benchmark():
    """Acceptance: prompt detection, recall recovered, ablation degraded,
    and the report byte-identical to the committed full run's."""
    committed = json.loads(RESULT_JSON.read_text())["checksum"]
    results = run_all(smoke=True)
    assert results["deterministic_repeat"], "campaign report not reproducible"
    assert results["checksum"] == committed, (
        f"campaign report checksum {results['checksum']} differs from the "
        f"committed {committed} in BENCH_campaign.json"
    )
    for p, v in results["drift_latency_batches"].items():
        assert v is not None and v <= results["latency_budget_batches"], (
            f"phase {p} drift latency {v} exceeds budget"
        )
    assert results["recovery_margin"] >= 0, (
        f"retraining failed to recover recall: {results['recovered_recall']} "
        f"vs baseline {results['baseline_recall']}"
    )
    assert results["ablation_recall"] < results["baseline_recall"] - MARGIN, (
        "ablation did not stay degraded — the scenario no longer stresses "
        "the stale model"
    )
    assert RESULT_JSON.exists()
    assert json.loads(RESULT_JSON.read_text())["benchmark"] == "campaign"


if __name__ == "__main__":
    import sys

    run_all(smoke="--smoke" in sys.argv[1:])
