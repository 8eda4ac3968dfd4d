"""Helpers shared by the benchmark modules (tables, result persistence)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

# Every legacy script imports this module first; the scripts that compare
# against a reference find it in ``tests/oracles`` (``oracles.record_path``,
# ``oracles.frontend``).
_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)


def emit(name: str, text: str) -> None:
    """Print a result table and persist it to benchmarks/results/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def measured_at() -> str | None:
    """``git rev-parse --short HEAD`` of the checkout, plus ``-dirty`` when
    ``src/`` differs from it: the code a result was measured on."""
    root = Path(__file__).resolve().parent.parent
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        clean = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=root,
        ).returncode == 0
    except (OSError, subprocess.CalledProcessError):
        return None
    return head if clean else f"{head}-dirty"


def write_result(path: Path, results: dict) -> str:
    """Persist a benchmark's JSON at the repo root — full-scale runs only,
    stamped with :func:`measured_at`.

    A smoke run (``results["smoke"]`` true) is a CI gate, not a measurement,
    and must not overwrite the committed full-scale numbers; its table still
    lands in ``benchmarks/results/`` through :func:`emit`.  Returns the line
    that table ends with.
    """
    if results.get("smoke"):
        return f"smoke run: {path.name} not rewritten"
    results["measured_at"] = measured_at()
    path.write_text(json.dumps(results, indent=2) + "\n")
    return f"written: {path}"


def scaled(n: int) -> int:
    return max(20, int(n * SCALE))


def format_table(headers: list[str], rows: list[list]) -> str:
    """Plain-text table with right-padded columns."""
    cells = [[str(h) for h in headers]] + [[
        f"{v:.3f}" if isinstance(v, float) else str(v) for v in row
    ] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r_i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if r_i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def boxplot_stats(values: list[float]) -> dict[str, float]:
    """Median/quartiles/whiskers — the numbers behind the paper's boxplots."""
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "lo": 0.0, "hi": 0.0}
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    iqr = q3 - q1
    lo = float(arr[arr >= q1 - 1.5 * iqr].min())
    hi = float(arr[arr <= q3 + 1.5 * iqr].max())
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "lo": lo, "hi": hi}
