"""The committed ``BENCH_*.json`` files are full-scale measurements.

Each one has one writer, ``benchmarks/bench_<name>.py``, whose
``RESULT_JSON`` names it, and records the commit it was measured at
(``benchmarks/_bench_utils.write_result``).  A smoke run is a CI gate: it
may assert, it may not overwrite a committed result.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _result_files_named_by_writers() -> dict[str, list[str]]:
    """``bench_<name>.py`` → the strings its ``RESULT_JSON`` assignment holds."""
    named = {}
    for path in sorted((REPO / "benchmarks").glob("bench_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "RESULT_JSON" for t in node.targets
            ):
                named[path.name] = [
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                ]
    return named


def test_every_result_file_has_its_writer_and_every_writer_its_file():
    files = sorted(p.name for p in REPO.glob("BENCH_*.json"))
    assert files
    expected = {f"bench_{name[len('BENCH_'):-len('.json')]}.py": [name] for name in files}
    assert _result_files_named_by_writers() == expected


def test_committed_results_are_full_scale():
    results = {p.name: json.loads(p.read_text()) for p in REPO.glob("BENCH_*.json")}
    assert [name for name, r in results.items() if r.get("smoke") is not False] == []
    assert [name for name, r in results.items() if not r.get("measured_at")] == []


#: Each smoke run's own gate, so the run is known to have done its work.
SMOKE_GATES = {
    "bench_serving": lambda results: results["identity"]["byte_identical"],
    "bench_campaign": lambda results: results["deterministic_repeat"],
}


@pytest.mark.parametrize("module", sorted(SMOKE_GATES))
def test_smoke_run_leaves_the_committed_result_alone(monkeypatch, module):
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    bench = importlib.import_module(module)
    before = bench.RESULT_JSON.read_bytes()
    results = bench.run_all(smoke=True)
    assert results["smoke"] and SMOKE_GATES[module](results)
    assert bench.RESULT_JSON.read_bytes() == before
