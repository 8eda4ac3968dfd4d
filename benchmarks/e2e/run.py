"""One end-to-end, layer-attributed benchmark of the whole chain.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                  [--seconds S] [--trace [0|1]] [--out FILE]

Generates inputs from the seed, runs the workloads named in BENCHMARK.json
(all of them by default), checks every output and prints every metric by
name with its unit.  With one ``--workload`` the run happens in this process
and the last line of standard output is the result object the benchmark
driver reads; with several, each runs in a child process of its own (so
``peak_rss_mb`` is that workload's) for an untraced and a traced run, and
``--out`` collects them into one envelope.  See README.md.

Run shape: closed loop, one driver process, BLAS threads pinned to 1, every
``REPRO_*`` variable scrubbed so the defaults are what is measured.  Set-up
(imports, seeded inputs, pool warm-up) is timed, one pass warms up untimed,
then passes repeat for ``--seconds``; timings are medians over passes.
Tracing is off for the end-to-end numbers; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer numbers and the overhead.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: The committed full-scale run on the reference host; never a smoke run.
REFERENCE = HERE / "results" / "reference.json"
SCHEMA = "repro-e2e/1"
#: Set-up repeats per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
SMOKE_SCALE = 0.25
#: Worked out from array sizes, not read from a clock or a counter.
COMPUTED = frozenset({
    "astro.kernels.dedisperse_madds",
    "astro.kernels.dedisperse_bytes",
    "astro.kernels.boxcar_cells",
})
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def pin_environment() -> None:
    """Measure the defaults: one BLAS thread, no REPRO_* overrides."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Deprecated spellings are slated for deletion; the harness must not
    # depend on any of them.
    warnings.simplefilter("error", DeprecationWarning)


def _proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of another process, from /proc/<pid>/stat."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _child_pids() -> list[int]:
    """Every live or defunct process whose parent is this one."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue  # gone between the listing and the read
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                found.append(int(entry))
    return found


def _reap_children() -> None:
    """Leave no process behind, on any path out of the run.

    The pool's workers are stopped and joined by ``shutdown_pool``, but
    ``multiprocessing`` also starts a resource tracker with the first spawned
    worker, and that one only exits once its parent has: nobody waits for it,
    and where pid 1 does not reap it stays as a defunct process.  Registered
    with ``atexit`` before ``multiprocessing`` is imported, so this runs after
    every finalizer that could still talk to (and restart) the tracker.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # Closes the tracker's pipe, so it ends cleanly, and waits for it.
        tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _metric(name: str, unit: str, samples: list[float]) -> dict:
    q1, q3 = _quartiles(samples)
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "kind": "computed" if name in COMPUTED else "measured",
        "n": len(samples),
        "q1": q1,
        "q3": q3,
        "samples": samples,
    }


def _host() -> dict:
    import numpy

    from repro.astro.kernels import HAS_NUMBA

    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_available": bool(HAS_NUMBA),
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def _envelope(seed: int, seconds: float, smoke: bool) -> dict:
    return {
        "schema": SCHEMA,
        "git_sha": _git_sha(),
        "host": None,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "workloads": {},
        # Last on purpose: this run defines numbers, it claims no gain.
        "claim": None,
    }


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------
class Passes:
    """The timed passes of one run and what they showed."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        #: Wall seconds per good pass, untraced and traced.
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.cpus: list[float] = []
        #: Per traced pass: every per-layer number it yielded.
        self.layers: list[dict[str, float]] = []


def measure(w, inputs, pids: list[int], seconds: float, traced: bool, min_rounds: int):
    """Warm up once, then repeat passes for ``seconds``; returns the passes,
    the tracer and the last good result."""
    from spans import Tracer

    # The first pass through the kernels is much slower than the second.
    last = w.run(inputs, Tracer())
    reference = last.checksum
    off, on = Tracer(False), Tracer(True)
    p = Passes()
    rounds = 0
    deadline = perf_counter() + seconds
    while rounds < min_rounds or perf_counter() < deadline:
        rounds += 1
        # Alternate which goes first, so drift cancels in the overhead.
        for tracer in ((off, on) if rounds % 2 else (on, off)) if traced else (off,):
            p.attempted += 1
            tracer.pass_id = p.attempted
            gc.collect()
            workers0 = sum(_proc_cpu_s(pid) for pid in pids)
            driver0 = time.process_time()
            t0 = perf_counter()
            try:
                result = w.run(inputs, tracer)
            except Exception:
                traceback.print_exc()
                p.failed += 1
                p.problems.append(f"pass {p.attempted} raised")
                continue
            wall = perf_counter() - t0
            driver_cpu = time.process_time() - driver0
            worker_cpu = sum(_proc_cpu_s(pid) for pid in pids) - workers0
            bad = list(result.problems)
            if result.checksum != reference:
                bad.append("output differs from the first pass")
            if bad:
                p.failed += 1
                p.problems += [f"pass {p.attempted}: {b}" for b in bad]
                continue
            last = result
            p.walls[tracer.enabled].append(wall)
            if not tracer.enabled:
                p.cpus.append(driver_cpu + worker_cpu)
                continue
            row = {f"{k}_s": v for k, v in on.seconds_by_name(p.attempted).items()}
            row.pop("harness.check_s", None)  # the harness's own time, not a layer's
            row.update(result.counts)
            row["trace.untraced_frac"] = 1.0 - on.top_level_seconds(p.attempted) / wall
            if pids:
                row["sparklet.executor.worker_cpu_s"] = worker_cpu
                row["sparklet.executor.busy_frac"] = row["sparklet.task_s_total"] / (
                    len(pids) * row["core.drapid.run_s"]
                )
            p.layers.append(row)
    return p, on, last


def check_serial_twin(w, inputs, reference: str, p: Passes, n_timed: int) -> list[float]:
    """Run the same job on the serial backend: its bytes must be equal.

    The first serial run in this process warms up; the ``n_timed`` after it
    are timed for ``speedup_vs_serial``.
    """
    walls = []
    for _ in range(1 + n_timed):
        p.attempted += 1
        t0 = perf_counter()
        twin = w.serial_twin(inputs)
        walls.append(perf_counter() - t0)
        if twin.checksum != reference:
            p.failed += 1
            p.problems.append("serial and parallel bytes differ")
    return walls[1:]


def per_layer_metrics(p: Passes, extras: dict, twin_walls: list[float], spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    samples: dict[str, list[float]] = {key: [float(value)] for key, value in extras.items()}
    for row in p.layers:
        for key, value in row.items():
            samples.setdefault(key, []).append(float(value))
    samples["trace.overhead_frac"] = [
        t / u - 1.0 for t, u in zip(p.walls[True], p.walls[False])
    ]
    if twin_walls:
        samples["sparklet.executor.speedup_vs_serial"] = [
            statistics.median(twin_walls) / statistics.median(p.walls[False])
        ]
    unknown = sorted(set(samples) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    # A layer the workload bypasses reads 0: it did no work here.
    return {key: _metric(key, unit, samples.get(key, [0.0])) for key, unit in units.items()}


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool, spec: dict
) -> dict:
    """Set up, warm up, measure and check one workload; returns its record."""
    t0 = perf_counter()
    from repro.sparklet.executor import get_pool, shutdown_pool
    from workloads import WORKLOADS

    import_s = perf_counter() - t0

    w = WORKLOADS[name]
    try:
        prepare_s: list[float] = []
        inputs = None
        for _ in range(1 if traced or smoke else SETUP_REPS):
            # Each repeat pays for its own inputs and its own worker pool.
            inputs = None
            shutdown_pool()
            gc.collect()
            t0 = perf_counter()
            inputs = w.prepare(seed, SMOKE_SCALE if smoke else 1.0)
            prepare_s.append(perf_counter() - t0)
        # Only the parallel workload has a pool (and get_pool() would make one).
        pids = list(get_pool().worker_pids().values()) if w.serial_twin else []

        min_rounds = 1 if smoke else (2 if traced else 3)
        p, tracer, last = measure(w, inputs, pids, seconds, traced, min_rounds)
        if not p.walls[False]:
            raise SystemExit(f"{name}: no pass succeeded: {p.problems}")
        if last.recall < w.recall_floor:
            p.problems.append(f"recall {last.recall:.3f} below floor {w.recall_floor}")
        twin_walls = []
        if w.serial_twin is not None:
            n_timed = 2 if traced and not smoke else 0
            twin_walls = check_serial_twin(w, inputs, last.checksum, p, n_timed)
        extras = w.standalone(inputs, last) if traced else {}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + sum(
            _proc_peak_rss_mb(pid) for pid in pids
        )
    finally:
        shutdown_pool()
    leaked = [
        e for e in (os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else [])
        if e.startswith(f"sparklet{os.getpid():x}")
    ]
    if leaked:
        p.problems.append(f"shared-memory segments left behind: {leaked}")

    if traced:
        metrics = per_layer_metrics(p, extras, twin_walls, spec)
        if metrics["trace.untraced_frac"]["value"] > 0.05:
            p.problems.append("top-level spans leave more than 5% of the pass untraced")
    else:
        samples = {
            "setup_s": [import_s + s for s in prepare_s],
            "wall_s": p.walls[False],
            "cpu_s": p.cpus,
            "peak_rss_mb": [peak_rss_mb],
            "recall": [last.recall],
        }
        metrics = {
            m["name"]: _metric(m["name"], m["unit"], samples[m["name"]])
            for m in spec["end_to_end"]
        }
    return {
        "why": w.why,
        "inputs": inputs.sizes,
        "traced": traced,
        "attempted": p.attempted,
        "failed": p.failed,
        "correct": not p.problems,
        "problems": p.problems,
        "checksum": last.checksum,
        "n_pulses": last.n_pulses,
        "metrics": metrics,
        "spans": tracer.spans,
    }


def print_metrics(name: str, record: dict) -> None:
    for key, m in record["metrics"].items():
        print(f"{name}.{key} {m['value']:.6g} {m['unit']} ({m['kind']}, n={m['n']})")
    for problem in record["problems"]:
        print(f"{name}: CHECK FAILED: {problem}")


# ---------------------------------------------------------------------------
# Several workloads: one child process each
# ---------------------------------------------------------------------------
def run_children(names: list[str], args: argparse.Namespace) -> dict:
    envelope = _envelope(args.seed, args.seconds, args.smoke)
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        for name in names:
            for traced in (0, 1):
                out = Path(tmp) / f"{name}.{traced}.json"
                cmd = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(traced), "--out", str(out),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                # Everything but the child's driver-facing result line.
                sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
                if not out.exists():
                    raise SystemExit(f"{name} (trace {traced}) exited {done.returncode}")
                child = json.loads(out.read_text())
                envelope["host"] = child["host"]
                envelope["workloads"].setdefault(name, {}).update(child["workloads"][name])
    return envelope


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report the per-layer metrics from traced passes")
    parser.add_argument("--smoke", action="store_true",
                        help="quarter-size inputs, one pass: a quick check, never a result")
    parser.add_argument("--out", type=Path, help="write the result envelope here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: the program under test is missing: {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.smoke and args.out is not None and args.out.resolve() == REFERENCE:
        print("run.py: refusing to write the reference result from a --smoke run",
              file=sys.stderr)
        return 2

    selected = args.workload or names
    if len(selected) > 1:
        envelope = run_children(selected, args)
        records = [r for w in envelope["workloads"].values() for r in w.values()]
    else:
        atexit.register(_reap_children)
        pin_environment()
        mode = "per_layer" if args.trace else "end_to_end"
        record = run_workload(
            selected[0], args.seed, args.seconds, bool(args.trace), args.smoke, spec
        )
        print_metrics(selected[0], record)
        envelope = _envelope(args.seed, args.seconds, args.smoke)
        envelope["host"] = _host()
        envelope["workloads"][selected[0]] = {mode: record}
        records = [record]

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(envelope, indent=1) + "\n")

    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if len(selected) == 1:
        summary["metrics"] = {
            key: {"value": m["value"], "unit": m["unit"]}
            for key, m in records[0]["metrics"].items()
        }
    else:
        summary["claim"] = None
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
