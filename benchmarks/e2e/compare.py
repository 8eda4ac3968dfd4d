"""Noise-aware comparison of two result envelopes written by run.py.

    python3 benchmarks/e2e/compare.py A.json B.json

For every workload and end-to-end metric, B's median may be worse than A's by
at most the bound BENCHMARK.json fixes for that metric.  Where the
quartile spread of either side's own samples is wider than the bound, the
pair is reported as *unresolved*, not as unchanged, unless every sample of B
reads better than every sample of A.  Exits non-zero on a regression, on more
failed passes than A, or on an output that is no longer correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _spread(metric: dict) -> float:
    """Distance between the quartiles as a share of the median."""
    return (metric["q3"] - metric["q1"]) / abs(metric["value"]) if metric["value"] else 0.0


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both envelopes."""
    rows = []
    for workload, sides in a["workloads"].items():
        rec_a = sides.get("end_to_end")
        rec_b = b["workloads"].get(workload, {}).get("end_to_end")
        if rec_a is None or rec_b is None:
            continue
        if rec_b["failed"] > rec_a["failed"] or (rec_a["correct"] and not rec_b["correct"]):
            rows.append({
                "workload": workload, "metric": "failed", "verdict": "regression",
                "a": rec_a["failed"], "b": rec_b["failed"], "change": None, "bound": 0.0,
            })
        for m in spec["end_to_end"]:
            ma, mb = rec_a["metrics"][m["name"]], rec_b["metrics"][m["name"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (mb["value"] - ma["value"]) / abs(ma["value"])
            if m["better"] == "lower":
                all_better = max(mb["samples"]) < min(ma["samples"])
            else:
                all_better = min(mb["samples"]) > max(ma["samples"])
            if max(_spread(ma), _spread(mb)) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "regression"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": m["name"], "verdict": verdict,
                "a": ma["value"], "b": mb["value"], "change": worse_by, "bound": m["bound"],
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in args)
    if a["smoke"] != b["smoke"]:
        print("compare.py: one side is a --smoke run, the other is not", file=sys.stderr)
        return 2
    rows = compare(a, b, json.loads(SPEC_PATH.read_text()))
    for r in rows:
        change = "" if r["change"] is None else f"  worse by {r['change']:+.1%} (bound {r['bound']:.0%})"
        print(f"{r['verdict']:<10} {r['workload']}.{r['metric']}  {r['a']:.6g} -> {r['b']:.6g}{change}")
    bad = [r for r in rows if r["verdict"] == "regression"]
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(f"{len(rows)} compared, {len(bad)} regressions, {unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
