"""The committed ``BENCH_*.json`` files are full-scale measurements.

A smoke run is a CI gate: it may assert, it may not overwrite a committed
result (``benchmarks/_bench_utils.write_result``).
"""

import importlib
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

def test_committed_results_are_full_scale():
    smoke = {p.name: json.loads(p.read_text()).get("smoke") for p in REPO.glob("BENCH_*.json")}
    assert len(smoke) >= 8
    assert [name for name, flag in smoke.items() if flag is None] == []
    assert [name for name, flag in smoke.items() if flag] == []


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
