"""Front-end kernel benchmark: seed's naive loops vs the vectorized kernels.

Times the three front-end stages the ISSUE targets, at several
(n_channels, n_samples, n_dms) scales:

- ``single_pulse_search`` — full pipeline (dedispersion + boxcar search):
  naive per-DM ``np.convolve`` path (:func:`_reference_single_pulse_search`)
  vs batch dedispersion + O(n) cumulative-sum boxcars;
- dedispersion alone — per-channel Python shift loop vs
  :func:`repro.astro.kernels.dedisperse_batch`, plus the two-stage subband
  path on a fine DM ladder (where partial-sum reuse pays off);
- kernel methods — direct/subband curves on large fine DM grids
  (``KernelConfig`` dispatch), with an in-bench equivalence check
  (direct ≡ naive reference), and the ``tracemalloc`` peak of each
  streamed ``single_pulse_search`` next to the bytes of the dedispersed
  block it no longer holds (gated at ≤ ¼ of the block);
- DBSCAN — the dict-of-cells sweep vs the columnar pair passes.

Writes ``BENCH_frontend_kernels.json`` at the repo root (the perf
trajectory baseline) and a table under ``benchmarks/results/``.

Run:    PYTHONPATH=src python benchmarks/bench_frontend_kernels.py [--smoke]
or:     PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_frontend_kernels.py -q
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path

import numpy as np

from _bench_utils import emit, format_table, write_result
from oracles.frontend import (
    _reference_dbscan,
    _reference_dedisperse,
    _reference_single_pulse_search,
)
from repro.astro.clustering import SinglePulseDBSCAN
from repro.astro.filterbank import (
    InjectedPulse,
    dedisperse_all,
    single_pulse_search,
    synthesize_filterbank,
)
from repro.astro.kernels import dedisperse_grid
from repro.execution import KernelConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_frontend_kernels.json"

#: (name, n_channels, duration_s, sample_time_s, n_dms).  "headline" is the
#: ISSUE's acceptance scale: 64 channels × 60 s × 100 trial DMs.
SEARCH_SCALES: tuple[tuple[str, int, float, float, int], ...] = (
    ("small", 32, 8.0, 1e-3, 20),
    ("medium", 64, 30.0, 1e-3, 50),
    ("headline", 64, 60.0, 1e-3, 100),
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

    batch = KernelConfig(method="direct")
    subband = KernelConfig(method="subband")
    coarse = np.linspace(2.0, 150.0, 100)
    t_naive = _timeit(lambda: naive_all(coarse), repeats=1)
    t_batch = _timeit(lambda: dedisperse_all(fb, coarse, kernel=batch))
    records.append(
        {
            "ladder": "coarse (100 DMs, 2-150)",
            "method": "batch",
            "naive_s": round(t_naive, 4),
            "vectorized_s": round(t_batch, 4),
            "speedup": round(t_naive / t_batch, 2),
        }
    )
    # Fine ladder: neighbouring trial DMs share channel shifts, so the
    # two-stage subband path reuses partial sums across them.
    fine = np.arange(50.0, 70.0, 0.05)
    t_batch_fine = _timeit(lambda: dedisperse_all(fb, fine, kernel=batch))
    t_sub_fine = _timeit(lambda: dedisperse_all(fb, fine, kernel=subband))
    records.append(
        {
            "ladder": f"fine ({fine.size} DMs, 50-70 step 0.05)",
            "method": "subband vs batch",
            "naive_s": round(t_batch_fine, 4),
            "vectorized_s": round(t_sub_fine, 4),
            "speedup": round(t_batch_fine / t_sub_fine, 2),
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
    """In-bench correctness guard: the numbers only count if direct rows
    equal the naive reference on sampled DMs."""
    freqs, f_ref, tsamp = fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s
    sample = trials[:: max(1, trials.size // 4)][:4]
    direct = dedisperse_grid(fb.data, freqs, f_ref, tsamp, sample,
                             kernel=KernelConfig(method="direct"))
    for row, dm in zip(direct, sample):
        ref = _reference_dedisperse(fb.data, freqs, f_ref, tsamp, float(dm))
        assert np.max(np.abs(row - ref)) <= 1e-6, dm


def _search_peak_mib(fb, trials, kernel) -> float:
    """``tracemalloc`` peak of one ``single_pulse_search`` call, MiB: what
    the call allocates, not the filterbank it is given."""
    tracemalloc.start()
    try:
        single_pulse_search(fb, trials, kernel=kernel)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bench_kernel_methods(scales=KERNEL_SCALES) -> list[dict]:
    """Direct/subband curves on fine DM grids, vs the naive front end and the
    exact direct kernel.  Best-of-3 timing: the repo's CI box is a single
    slow core, and one-shot timings there are noise."""
    records = []
    for name, n_channels, duration_s, dm_lo, dm_step, n_dms in scales:
        fb = _make_filterbank(n_channels, duration_s, 1e-3)
        trials = dm_lo + dm_step * np.arange(n_dms)
        # single_pulse_search's float32 block, which it streams instead.
        block_mib = n_dms * fb.n_samples * 4 / 2**20
        _assert_kernel_equivalence(fb, trials)
        t_naive = _timeit(lambda: _reference_single_pulse_search(fb, trials),
                          repeats=1)
        curves = []
        t_direct_dedisp = None
        for method in ("direct", "subband"):
            kernel = KernelConfig(method=method)
            t_dedisp = _timeit(
                lambda: dedisperse_grid(fb.data, fb.channel_freqs_mhz,
                                        fb.f_high_mhz, fb.sample_time_s,
                                        trials, kernel=kernel),
                repeats=3,
            )
            t_search = _timeit(
                lambda: single_pulse_search(fb, trials, kernel=kernel),
                repeats=3,
            )
            if method == "direct":
                t_direct_dedisp = t_dedisp
            curves.append({
                "method": method,
                "dedisperse_s": round(t_dedisp, 4),
                "search_s": round(t_search, 4),
                "search_speedup_vs_naive": round(t_naive / t_search, 2),
                "dedisperse_speedup_vs_direct": round(
                    t_direct_dedisp / t_dedisp, 2),
                "search_peak_mib": round(_search_peak_mib(fb, trials, kernel), 2),
            })
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


def run_all() -> dict:
    search = bench_single_pulse_search()
    dedisp = bench_dedispersion()
    methods = bench_kernel_methods()
    dbscan = bench_dbscan()
    results = {
        "benchmark": "frontend_kernels",
        "generated_by": "benchmarks/bench_frontend_kernels.py",
        "smoke": False,
        "single_pulse_search": search,
        "dedispersion": dedisp,
        "kernel_methods": methods,
        "dbscan": dbscan,
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
            for r in methods for c in r["curves"]
        ],
    )
    emit("BENCH_frontend_kernels", table + f"\n\n{memory}\n\n{note}")
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
    assert RESULT_JSON.exists()


def _assert_subband_gate(subband: dict) -> None:
    """Kernel-method acceptance at the largest fine DM grid: subband
    dedispersion beats the exact direct kernel ≥2×, and the subband front
    end beats the naive reference ≥5× end to end."""
    assert subband["dedisperse_speedup_vs_direct"] >= 2.0, subband
    assert subband["search_speedup_vs_naive"] >= 5.0, subband


def _assert_memory_gate(record: dict) -> None:
    """The streamed search never holds the dedispersed block: on either
    method its traced peak is at most a quarter of the block's bytes."""
    for curve in record["curves"]:
        assert curve["search_peak_mib"] <= record["block_mib"] / 4, (record, curve)


def run_smoke() -> None:
    """CI gate: in-bench equivalence (direct ≡ reference), the subband gate
    and the memory gate on the fine-large grid.  Does not rewrite the
    committed JSON."""
    record = bench_kernel_methods(scales=KERNEL_SCALES[1:2])[0]
    subband = _curve(record, "subband")
    peaks = ", ".join(f"{c['method']} {c['search_peak_mib']}" for c in record["curves"])
    emit(
        "BENCH_frontend_kernels (smoke)",
        f"subband vs direct dedispersion at {record['scale']}: "
        f"{subband['dedisperse_speedup_vs_direct']}x "
        f"(search vs naive: {subband['search_speedup_vs_naive']}x); "
        f"search peak MiB {peaks} of a {record['block_mib']} MiB block",
    )
    _assert_subband_gate(subband)
    _assert_memory_gate(record)


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        run_smoke()
    else:
        run_all()
