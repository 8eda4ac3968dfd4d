"""Front-end kernel benchmark: seed's naive loops vs the vectorized kernels.

Times the three front-end stages the ISSUE targets, at several
(n_channels, n_samples, n_dms) scales:

- ``single_pulse_search`` — full pipeline (dedispersion + boxcar search):
  naive per-DM ``np.convolve`` path (:func:`_reference_single_pulse_search`)
  vs batch dedispersion + O(n) cumulative-sum boxcars;
- dedispersion alone — per-channel Python shift loop vs the dedispersion
  engine (:func:`repro.astro.kernels.plan_dedispersion`) on a coarse
  ladder, where every row is a group of one, plus the engine against the
  exact block (``_reference_dedisperse_block`` in
  ``tests/oracles/frontend.py``, every channel at its exact shift) on a fine
  DM ladder, where partial-sum reuse pays off;
- kernel curves — ``direct`` (the exact block, searched whole) and
  ``subband`` (the engine, streamed by ``single_pulse_search``) on large
  fine DM grids, with an in-bench equivalence check (the exact block ≡ the
  naive reference, the engine's groups of one ≡ the exact block), and the
  ``tracemalloc`` peak of the streamed ``single_pulse_search`` next to the
  bytes of the dedispersed block it never holds (gated at ≤ ¼ of the
  block);
- DBSCAN — the dict-of-cells sweep vs the columnar pair passes;
- the speed/sensitivity frontier — ``direct`` and the engine over
  ``plan_dedispersion(n_subbands=, tol_samples=)`` on the end-to-end
  harness's two voltage
  inputs (seeds 0–9): dedispersion seconds, injected pulses recovered
  through the whole chain, the recovered S/N fraction and each pulse's
  best boxcar S/N against ``direct``'s.  The engine's default settings must
  dedisperse faster than ``direct`` and recover, in total, as many pulses
  on both inputs, and every row the engine sums on its own must be the
  exact block's.

Writes ``BENCH_frontend_kernels.json`` at the repo root (the perf
trajectory baseline, stamped with the commit measured)
and a table under ``benchmarks/results/``.

Run:    PYTHONPATH=src python benchmarks/bench_frontend_kernels.py [--smoke]
or:     PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_frontend_kernels.py -q
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from _bench_utils import emit, format_table, write_result
from oracles.frontend import (
    _reference_dbscan,
    _reference_dedisperse,
    _reference_dedisperse_block,
    _reference_exact_search,
    _reference_single_pulse_search,
)
from repro.astro.clustering import SinglePulseDBSCAN
from repro.astro.filterbank import (
    InjectedPulse,
    dedisperse_all,
    single_pulse_search,
    synthesize_filterbank,
)
from repro.api import ExecutionConfig, PipelineConfig, run_drapid
from repro.astro.kernels import (
    N_SUBBANDS,
    TOL_SAMPLES,
    plan_dedispersion,
    single_pulse_block_search,
)
from repro.astro.spe import ObservationKey, spes_from_search
from repro.astro.survey import Observation, default_clusterer
from repro.dataplane import SPEBatch

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_frontend_kernels.json"

#: (name, n_channels, duration_s, sample_time_s, n_dms).  "headline" is the
#: ISSUE's acceptance scale: 64 channels × 60 s × 100 trial DMs.
SEARCH_SCALES: tuple[tuple[str, int, float, float, int], ...] = (
    ("small", 32, 8.0, 1e-3, 20),
    ("medium", 64, 30.0, 1e-3, 50),
    ("headline", 64, 60.0, 1e-3, 100),
)


def _exact_block(fb, trials, out_dtype=np.float64) -> np.ndarray:
    """The ``direct`` block: every channel at its exact shift (the oracle)."""
    return _reference_dedisperse_block(
        fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s, trials,
        out_dtype,
    )


def _timeit(fn, repeats: int = 2) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return float(best)


def _make_filterbank(n_channels: int, duration_s: float, sample_time_s: float):
    pulses = [
        InjectedPulse(time_s=duration_s / 3, dm=80.0, width_ms=12.0, amplitude=0.4),
        InjectedPulse(time_s=2 * duration_s / 3, dm=35.0, width_ms=6.0, amplitude=0.5),
    ]
    return synthesize_filterbank(
        duration_s=duration_s,
        n_channels=n_channels,
        f_low_mhz=300.0,
        f_high_mhz=400.0,
        sample_time_s=sample_time_s,
        pulses=pulses,
        seed=3,
    )


def bench_single_pulse_search() -> list[dict]:
    records = []
    for name, n_channels, duration_s, sample_time_s, n_dms in SEARCH_SCALES:
        fb = _make_filterbank(n_channels, duration_s, sample_time_s)
        trials = np.linspace(2.0, 150.0, n_dms)
        t_naive = _timeit(lambda: _reference_single_pulse_search(fb, trials), repeats=1)
        t_vec = _timeit(lambda: single_pulse_search(fb, trials))
        records.append(
            {
                "scale": name,
                "n_channels": n_channels,
                "duration_s": duration_s,
                "n_samples": fb.n_samples,
                "n_dms": n_dms,
                "naive_s": round(t_naive, 4),
                "vectorized_s": round(t_vec, 4),
                "speedup": round(t_naive / t_vec, 2),
            }
        )
    return records


def bench_dedispersion() -> list[dict]:
    records = []
    fb = _make_filterbank(64, 60.0, 1e-3)

    def naive_all(trials):
        return [
            _reference_dedisperse(
                fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s, dm
            )
            for dm in trials
        ]

    # Coarse ladder: no two trial DMs share a subband group, so the
    # engine sums every row at its exact shifts.
    coarse = np.linspace(2.0, 150.0, 100)
    t_naive = _timeit(lambda: naive_all(coarse), repeats=1)
    t_engine = _timeit(lambda: dedisperse_all(fb, coarse))
    records.append(
        {
            "ladder": "coarse (100 DMs, 2-150)",
            "method": "engine (groups of one)",
            "naive_s": round(t_naive, 4),
            "vectorized_s": round(t_engine, 4),
            "speedup": round(t_naive / t_engine, 2),
        }
    )
    # Fine ladder: neighbouring trial DMs share channel shifts, so the
    # engine reuses partial sums across them.
    fine = np.arange(50.0, 70.0, 0.05)
    t_exact_fine = _timeit(lambda: _exact_block(fb, fine))
    t_engine_fine = _timeit(lambda: dedisperse_all(fb, fine))
    records.append(
        {
            "ladder": f"fine ({fine.size} DMs, 50-70 step 0.05)",
            "method": "engine vs exact block",
            "naive_s": round(t_exact_fine, 4),
            "vectorized_s": round(t_engine_fine, 4),
            "speedup": round(t_exact_fine / t_engine_fine, 2),
        }
    )
    return records


#: (name, n_channels, duration_s, dm_lo, dm_step, n_dms).  The fine grids
#: are where subband reuse pays: neighbouring trial DMs share most of
#: their per-subband partial sums.  "fine-large" is the acceptance scale.
KERNEL_SCALES: tuple[tuple[str, int, float, float, float, int], ...] = (
    ("fine-medium", 64, 16.0, 40.0, 0.05, 600),
    ("fine-large", 128, 16.0, 30.0, 0.05, 1200),
)


def _assert_kernel_equivalence(fb, trials) -> None:
    """In-bench correctness guard: the numbers only count if, on sampled
    DMs, the exact block's rows equal the naive per-DM reference and the
    engine's rows (far apart, so each a group of one) equal the exact
    block's, bit for bit."""
    args = (fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s)
    sample = trials[:: max(1, trials.size // 4)][:4]
    exact = _exact_block(fb, sample)
    for row, dm in zip(exact, sample):
        ref = _reference_dedisperse(*args, float(dm))
        assert np.max(np.abs(row - ref)) <= 1e-6, dm
    plan = plan_dedispersion(*args, sample)
    assert plan.solo_rows == sample.size, plan.solo_rows
    assert plan.block().tobytes() == exact.tobytes()


def _search_peak_mib(fb, trials) -> float:
    """``tracemalloc`` peak of one ``single_pulse_search`` call, MiB: what
    the call allocates, not the filterbank it is given."""
    tracemalloc.start()
    try:
        single_pulse_search(fb, trials)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bench_kernel_methods(scales=KERNEL_SCALES) -> list[dict]:
    """``direct`` (the exact block) and ``subband`` (the engine) curves on
    fine DM grids, vs the naive front end.  Best-of-3 timing: the repo's CI
    box is a single slow core, and one-shot timings there are noise."""
    records = []
    for name, n_channels, duration_s, dm_lo, dm_step, n_dms in scales:
        fb = _make_filterbank(n_channels, duration_s, 1e-3)
        trials = dm_lo + dm_step * np.arange(n_dms)
        # single_pulse_search's float32 block, which it streams instead.
        block_mib = n_dms * fb.n_samples * 4 / 2**20
        _assert_kernel_equivalence(fb, trials)
        t_naive = _timeit(lambda: _reference_single_pulse_search(fb, trials),
                          repeats=1)
        t_direct_dedisp = _timeit(lambda: _exact_block(fb, trials), repeats=3)
        t_dedisp = _timeit(lambda: dedisperse_all(fb, trials), repeats=3)
        t_direct_search = _timeit(lambda: _reference_exact_search(fb, trials), repeats=3)
        t_search = _timeit(lambda: single_pulse_search(fb, trials), repeats=3)
        curves = [
            {
                "method": "direct",
                "dedisperse_s": round(t_direct_dedisp, 4),
                "search_s": round(t_direct_search, 4),
                "search_speedup_vs_naive": round(t_naive / t_direct_search, 2),
                "dedisperse_speedup_vs_direct": 1.0,
            },
            {
                "method": "subband",
                "dedisperse_s": round(t_dedisp, 4),
                "search_s": round(t_search, 4),
                "search_speedup_vs_naive": round(t_naive / t_search, 2),
                "dedisperse_speedup_vs_direct": round(t_direct_dedisp / t_dedisp, 2),
                "search_peak_mib": round(_search_peak_mib(fb, trials), 2),
            },
        ]
        records.append({
            "scale": name,
            "n_channels": n_channels,
            "n_samples": fb.n_samples,
            "n_dms": n_dms,
            "dm_step": dm_step,
            "naive_search_s": round(t_naive, 4),
            "block_mib": round(block_mib, 2),
            "filterbank_mib": round(fb.data.nbytes / 2**20, 2),
            "curves": curves,
        })
    return records


def bench_dbscan() -> dict:
    rng = np.random.default_rng(11)
    n_blobs, n = 60, 20000
    centers = rng.uniform(0, 400, size=(n_blobs, 2))
    pts = centers[rng.integers(0, n_blobs, n)] + rng.normal(0, 1.2, size=(n, 2))
    x, y = pts[:, 0], pts[:, 1]
    db = SinglePulseDBSCAN()
    t_ref = _timeit(lambda: _reference_dbscan(db, x, y), repeats=1)
    t_grid = _timeit(lambda: db._dbscan(x, y))
    assert np.array_equal(db._dbscan(x, y), _reference_dbscan(db, x, y))
    return {
        "n_points": n,
        "naive_s": round(t_ref, 4),
        "vectorized_s": round(t_grid, 4),
        "speedup": round(t_ref / t_grid, 2),
    }


#: The frontier's subband settings: ``None`` subbands is round(√n_chan).
FRONTIER_SUBBANDS = (4, None, 16)
FRONTIER_TOLS = (0.5, 1.0, 2.0)
FRONTIER_SEEDS = tuple(range(10))
FRONTIER_INPUTS = ("voltages_fine", "voltages_dense")
#: The harness's D-RAPID configuration for its voltage passes.
FRONTIER_PIPELINE = PipelineConfig(
    num_partitions=32, execution=ExecutionConfig(backend="serial")
)


def _harness():
    """The end-to-end harness's workloads module: its voltage inputs and
    pass, its injected-pulse match rule and its checksum."""
    e2e = str(REPO_ROOT / "benchmarks" / "e2e")
    if e2e not in sys.path:
        sys.path.insert(0, e2e)
    import workloads

    return workloads


def _peak_snrs(w, inp, found) -> np.ndarray:
    """Each injected pulse's best boxcar S/N, before clustering: the
    strongest detection within the harness's DM tolerance of the pulse and
    within five widths plus the widest boxcar of its arrival (NaN if
    none)."""
    rows, samples, snrs, _widths = found
    dm = inp.trial_dms[rows]
    t = samples * inp.filterbank.sample_time_s
    peaks = []
    for pulse in inp.pulses:
        width_s = pulse.width_ms / 1e3
        near = np.abs(dm - pulse.dm) <= (
            5.0 * inp.grid.spacing_at(pulse.dm) + width_s / w.SWEEP_S_PER_DM
        )
        near &= np.abs(t - pulse.time_s) <= 5.0 * width_s + w.BOXCAR_WIDTHS[-1] * w.SAMPLE_TIME_S
        peaks.append(float(snrs[near].max()) if near.any() else np.nan)
    return np.array(peaks)


def _frontier_pass(w, inp, setting) -> dict:
    """One harness voltage pass dedispersed at ``setting`` — ``"direct"``
    (the exact block) or ``(n_subbands, tol_samples)`` of the engine.  The
    block is dedispersed whole, as the harness's traced pass does (the
    streamed search emits the same bits); every row the engine sums on its
    own is checked against the exact block's.

    The harness's pass always runs ``KernelConfig()``, so this re-spells it
    step by step to time the dedispersion alone, read each pulse's peak S/N
    and vary the setting.  It borrows two harness definitions: the match
    rule that decides which injected pulses were recovered
    (``_match_injected``) and the checksum (``_digest``).  The guard
    against drift from ``workload.run`` is :func:`bench_frontier`'s check
    that, on every seed, the default setting's pass has the harness pass's
    checksum and recall."""
    fb, dms = inp.filterbank, inp.trial_dms
    args = (fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s, dms)
    t0 = time.perf_counter()
    if setting == "direct":
        block = _reference_dedisperse_block(*args, np.float32)
        dedisperse_s = time.perf_counter() - t0
    else:
        n_subbands, tol_samples = setting
        plan = plan_dedispersion(
            *args, np.float32, n_subbands=n_subbands, tol_samples=tol_samples,
        )
        block = plan.block()
        dedisperse_s = time.perf_counter() - t0
        solo = np.flatnonzero(plan.group_of < 0)
        exact = _reference_dedisperse_block(*args[:4], dms[solo], np.float32)
        assert block[solo].tobytes() == exact.tobytes(), setting
        del plan, exact
    found = single_pulse_block_search(block, w.SNR_THRESHOLD, w.BOXCAR_WIDTHS)
    del block
    spes = spes_from_search(dms, fb.sample_time_s, *found)
    batch = SPEBatch.from_records(spes)
    labels, clusters = default_clusterer(inp.grid).fit_batch(
        batch, batch.dm / inp.grid.spacing_of(batch.dm)
    )
    observation = Observation(
        key=ObservationKey(w.SURVEY.name, 55000.0, "J0000+0000", 0),
        config=w.SURVEY, grid=inp.grid, spes=spes, labels=labels,
        clusters=clusters, _spe_batch=batch,
    )
    result = run_drapid(FRONTIER_PIPELINE, [observation])
    assert not result.n_null_joins, result.n_null_joins
    pulses = result.pulse_batch
    hits, recovered = w._match_injected(
        inp.pulses, inp.target_snrs, inp.grid, pulses.features
    )
    return {
        "dedisperse_s": dedisperse_s,
        "hits": hits,
        "snr_recovered_frac": float(np.mean(recovered)) if recovered else 0.0,
        "peak_snrs": _peak_snrs(w, inp, found),
        "checksum": w._digest(
            batch.dm, batch.snr, batch.time_s, pulses.features, n=len(pulses)
        ),
    }


def _setting_name(setting) -> str:
    if setting == "direct":
        return "direct"
    n_subbands, tol = setting
    return f"subband n_sub={n_subbands or 'sqrt'} tol={tol}"


def bench_frontier(seeds=FRONTIER_SEEDS) -> dict:
    """The speed/sensitivity frontier on both voltage inputs: ``direct``
    and the engine at each ``(n_subbands, tol_samples)``.

    Per input and setting: the median dedispersion seconds over the seeds;
    the injected pulses recovered through the whole chain per seed and in
    total, recall and the mean recovered-over-target S/N; and, pulse by
    pulse against ``direct`` on the same data, the ratio of the best boxcar
    S/N (mean, 10th percentile, minimum) — the kernel's own loss, free of
    the flips clustering and Algorithm 1 add.  On every seed the engine's
    pass at its default settings must be the harness's own pass: same
    checksum, same recall."""
    w = _harness()
    default = (N_SUBBANDS, TOL_SAMPLES)
    settings = ["direct"] + [
        (n, tol) for n in FRONTIER_SUBBANDS for tol in FRONTIER_TOLS
    ]
    inputs = {}
    for name in FRONTIER_INPUTS:
        workload = w.WORKLOADS[name]
        runs = {_setting_name(s): [] for s in settings}
        for seed in seeds:
            inp = workload.prepare(seed, 1.0)
            for setting in settings:
                result = _frontier_pass(w, inp, setting)
                if setting == default:
                    harness = workload.run(inp, w.Tracer())
                    assert result["checksum"] == harness.checksum, (name, seed)
                    assert result["hits"] / len(inp.pulses) == harness.recall, (name, seed)
                runs[_setting_name(setting)].append(result)
        direct_peaks = np.concatenate([r["peak_snrs"] for r in runs["direct"]])
        n_pulses = len(inp.pulses)
        rows = []
        for key, rs in runs.items():
            ratio = np.concatenate([r["peak_snrs"] for r in rs]) / direct_peaks
            ratio = ratio[np.isfinite(ratio)]
            rows.append({
                "setting": key,
                "dedisperse_s": round(statistics.median(r["dedisperse_s"] for r in rs), 4),
                "hits": [r["hits"] for r in rs],
                "hits_total": sum(r["hits"] for r in rs),
                "recall": round(sum(r["hits"] for r in rs) / (n_pulses * len(rs)), 4),
                "snr_recovered_frac": round(
                    float(np.mean([r["snr_recovered_frac"] for r in rs])), 4),
                "peak_snr_vs_direct": {
                    "pulses": int(ratio.size),
                    "mean": round(float(ratio.mean()), 4),
                    "p10": round(float(np.percentile(ratio, 10)), 4),
                    "min": round(float(ratio.min()), 4),
                },
            })
        inputs[name] = {
            "n_dms": int(inp.trial_dms.size),
            "injected_per_seed": n_pulses,
            "rows": rows,
        }
    return {
        "seeds": list(seeds),
        "default": _setting_name(default),
        "inputs": inputs,
    }


def _assert_default_keeps_direct_recall(frontier: dict) -> None:
    """The engine's gate: on both voltage inputs its default settings
    dedisperse faster than ``direct`` and recover, over the seeds, at
    least as many injected pulses."""
    for name, i in frontier["inputs"].items():
        rows = {r["setting"]: r for r in i["rows"]}
        default, direct = rows[frontier["default"]], rows["direct"]
        assert default["hits_total"] >= direct["hits_total"], (name, default, direct)
        assert default["dedisperse_s"] < direct["dedisperse_s"], (name, default, direct)


def run_all() -> dict:
    search = bench_single_pulse_search()
    dedisp = bench_dedispersion()
    methods = bench_kernel_methods()
    dbscan = bench_dbscan()
    frontier = bench_frontier()
    results = {
        "benchmark": "frontend_kernels",
        "generated_by": "benchmarks/bench_frontend_kernels.py",
        "smoke": False,
        "single_pulse_search": search,
        "dedispersion": dedisp,
        "kernel_methods": methods,
        "dbscan": dbscan,
        "frontier": frontier,
    }
    note = write_result(RESULT_JSON, results)

    table = format_table(
        ["stage", "scale", "naive s", "vectorized s", "speedup"],
        [
            ["search", r["scale"], r["naive_s"], r["vectorized_s"], f'{r["speedup"]}x']
            for r in search
        ]
        + [
            ["dedisp", r["ladder"], r["naive_s"], r["vectorized_s"], f'{r["speedup"]}x']
            for r in dedisp
        ]
        + [
            [c["method"], r["scale"], r["naive_search_s"],
             c["search_s"], f'{c["search_speedup_vs_naive"]}x']
            for r in methods for c in r["curves"]
        ]
        + [
            ["dbscan (columnar vs sweep)", f'{dbscan["n_points"]} pts', dbscan["naive_s"],
             dbscan["vectorized_s"], f'{dbscan["speedup"]}x']
        ],
    )
    memory = format_table(
        ["method", "scale", "block MiB", "streamed search peak MiB"],
        [
            [c["method"], r["scale"], r["block_mib"], c["search_peak_mib"]]
            for r in methods for c in r["curves"] if "search_peak_mib" in c
        ],
    )
    front = format_table(
        ["input", "setting", "dedisp s", "pulses (10 seeds)", "recall", "S/N frac",
         "peak S/N vs direct: mean", "p10", "min"],
        [
            [name, r["setting"], r["dedisperse_s"], r["hits_total"], r["recall"],
             r["snr_recovered_frac"], r["peak_snr_vs_direct"]["mean"],
             r["peak_snr_vs_direct"]["p10"], r["peak_snr_vs_direct"]["min"]]
            for name, i in frontier["inputs"].items() for r in i["rows"]
        ],
    )
    front += f"\ndefault: {frontier['default']}"
    emit("BENCH_frontend_kernels", table + f"\n\n{memory}\n\n{front}\n\n{note}")
    return results


def _curve(record: dict, method: str) -> dict:
    return next(c for c in record["curves"] if c["method"] == method)


def test_frontend_kernel_speedup():
    """Acceptance: ≥5× at the headline scale (64 ch × 60 s × 100 DMs)."""
    results = run_all()
    headline = next(
        r for r in results["single_pulse_search"] if r["scale"] == "headline"
    )
    assert headline["speedup"] >= 5.0, headline

    large = next(r for r in results["kernel_methods"]
                 if r["scale"] == "fine-large")
    _assert_subband_gate(_curve(large, "subband"))
    _assert_memory_gate(large)
    _assert_default_keeps_direct_recall(results["frontier"])
    assert RESULT_JSON.exists()


def _assert_subband_gate(subband: dict) -> None:
    """Kernel-method acceptance at the largest fine DM grid: subband
    dedispersion beats the exact direct kernel ≥2×, and the subband front
    end beats the naive reference ≥5× end to end."""
    assert subband["dedisperse_speedup_vs_direct"] >= 2.0, subband
    assert subband["search_speedup_vs_naive"] >= 5.0, subband


def _assert_memory_gate(record: dict) -> None:
    """The streamed search never holds the dedispersed block: its traced
    peak is at most a quarter of the block's bytes."""
    curve = _curve(record, "subband")
    assert curve["search_peak_mib"] <= record["block_mib"] / 4, (record, curve)


def run_smoke() -> None:
    """CI gate: in-bench equivalence (the exact block ≡ the naive reference,
    the engine's groups of one ≡ the exact block), the subband gate and the
    memory gate on the fine-large grid.  Does not rewrite the committed
    JSON."""
    record = bench_kernel_methods(scales=KERNEL_SCALES[1:2])[0]
    subband = _curve(record, "subband")
    emit(
        "BENCH_frontend_kernels (smoke)",
        f"subband vs direct dedispersion at {record['scale']}: "
        f"{subband['dedisperse_speedup_vs_direct']}x "
        f"(search vs naive: {subband['search_speedup_vs_naive']}x); "
        f"streamed search peak {subband['search_peak_mib']} MiB "
        f"of a {record['block_mib']} MiB block",
    )
    _assert_subband_gate(subband)
    _assert_memory_gate(record)


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        run_smoke()
    else:
        _assert_default_keeps_direct_recall(run_all()["frontier"])
