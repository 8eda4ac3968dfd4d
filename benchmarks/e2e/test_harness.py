"""The harness checks itself: one smoke run of all five workloads.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (not part of
the tier-1 ``testpaths``: it spawns ten benchmark processes).
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def envelope(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["claim"] is None
    return json.loads(out.read_text())


def test_every_workload_passes_its_checks(envelope):
    assert envelope["smoke"] is True and list(envelope)[-1] == "claim"
    assert list(envelope["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, sides in envelope["workloads"].items():
        for mode in ("end_to_end", "per_layer"):
            record = sides[mode]
            assert record["correct"] and record["failed"] == 0, (name, mode, record["problems"])
            assert record["attempted"] >= 1


def test_metric_names_match_the_spec(envelope):
    for sides in envelope["workloads"].values():
        for mode in ("end_to_end", "per_layer"):
            names = list(sides[mode]["metrics"])
            assert names == [m["name"] for m in SPEC[mode]]
            assert all(NAME.fullmatch(n) for n in names)
            for name, m in sides[mode]["metrics"].items():
                assert m["kind"] in ("measured", "computed"), name
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def test_workload_registry_matches_the_spec():
    from workloads import WORKLOADS

    assert {w.name: w.why for w in WORKLOADS.values()} == {
        w["name"]: w["why"] for w in SPEC["workloads"]
    }


def test_traced_and_untraced_outputs_agree(envelope):
    for name, sides in envelope["workloads"].items():
        assert sides["end_to_end"]["checksum"] == sides["per_layer"]["checksum"], name
        assert sides["per_layer"]["metrics"]["trace.untraced_frac"]["value"] <= 0.05, name
        spans = sides["per_layer"]["spans"]
        assert spans and all(s["end"] >= s["start"] for s in spans)


def test_serial_and_parallel_bytes_agree(envelope):
    serial = envelope["workloads"]["survey_identify"]["end_to_end"]
    parallel = envelope["workloads"]["survey_identify_par"]["end_to_end"]
    assert serial["checksum"] == parallel["checksum"]
    assert serial["n_pulses"] == parallel["n_pulses"] > 0


def test_each_workload_exercises_its_own_layers(envelope):
    def layer(workload: str, metric: str) -> float:
        return envelope["workloads"][workload]["per_layer"]["metrics"][metric]["value"]

    assert layer("voltages_fine", "astro.kernels.dedisperse_s") > 0
    assert layer("voltages_dense", "astro.clustering.fit_s") > 0
    assert layer("survey_identify", "astro.kernels.dedisperse_s") == 0
    assert layer("survey_identify", "sparklet.search_stage_task_s") > 0
    assert layer("survey_identify", "sparklet.executor.workers") == 0
    assert layer("survey_identify_par", "sparklet.executor.workers") >= 1
    assert layer("classify_alm", "core.drapid.run_s") == 0
    assert layer("classify_alm", "ml.validation.cv_s") > 0


def test_compare_is_clean_against_itself_and_flags_a_slowdown(envelope, tmp_path):
    rows = compare.compare(envelope, envelope, SPEC)
    assert rows and not [r for r in rows if r["verdict"] == "regression"]

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    factor = 1.0 + 2.0 * bound
    slower = copy.deepcopy(envelope)
    for sides in slower["workloads"].values():
        wall = sides["end_to_end"]["metrics"]["wall_s"]
        for key in ("value", "q1", "q3"):
            wall[key] *= factor
        wall["samples"] = [s * factor for s in wall["samples"]]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(envelope))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1


def test_smoke_run_may_not_overwrite_the_reference():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(run.REFERENCE)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "refusing" in done.stderr


def test_no_process_outlives_a_run():
    """Run under a subreaper: whatever the run orphans shows up as its child."""
    script = (
        "import ctypes, subprocess, sys\n"
        "import run\n"
        "ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER\n"
        "done = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "sys.exit(done.returncode or len(run._child_pids()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, sys.executable, str(HERE / "run.py"),
         "--workload", "survey_identify_par", "--smoke", "--seconds", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
