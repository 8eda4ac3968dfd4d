"""Columnar data plane benchmark: batch types vs the record-oriented path.

Times the two hot paths the data-plane refactor targets, against the
record-oriented oracle (``tests/oracles/record_path.py`` — byte identity is
asserted here before timing):

- **ML-file serialize+parse** — ``PulseBatch.to_ml_lines`` /
  ``from_ml_lines`` (column-memoized ``repr`` formatting, one
  ``np.fromstring`` pass for the numeric block) vs per-record
  ``SinglePulse.to_ml_row`` / ``from_ml_row``;
- **feature extraction** — ``extract_segment_features``
  (``-0.0``-padded blocks of ragged segments summed by size class, one
  ragged ``bin_slopes`` + residual per block) vs the per-pulse
  ``extract_pulse_features`` loop,
  on identical Algorithm 1 segment inputs;
- data/cluster file builders — whole-file batch serialization vs the
  record loops (reported for context, no threshold).

Writes ``BENCH_data_plane.json`` at the repo root and a table under
``benchmarks/results/``.

Run:    PYTHONPATH=src python benchmarks/bench_data_plane.py [--smoke]
or:     PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_data_plane.py -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from _bench_utils import emit, format_table, write_result
from oracles.record_path import (
    SinglePulse,
    _reference_build_cluster_file,
    _reference_build_data_file,
    extract_pulse_features,
    pulse_records,
)
from repro.astro import GBT350DRIFT, generate_observation
from repro.astro.population import b1853_like
from repro.core.features import extract_segment_features
from repro.core.rapid import run_rapid_observation_batch
from repro.dataplane import PulseBatch
from repro.io.spe_files import (
    build_cluster_file,
    build_data_file,
    parse_data_file,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_data_plane.json"

#: Feature-extraction workloads: (name, n_pulses, spes_per_pulse, binsize).
#: Identified single pulses typically span tens of trial DMs; "headline" is
#: the acceptance scale.
EXTRACT_SCALES: tuple[tuple[str, int, int, int], ...] = (
    ("narrow", 1000, 30, 15),
    ("headline", 2000, 40, 20),
    ("wide", 500, 200, 50),
)


def _timeit(fn, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return float(best)


def _drapid_pulse_batch(n_observations: int) -> PulseBatch:
    """Genuine D-RAPID output as the ML-file payload — no synthetic stand-in.

    Runs the batched Algorithm 1 search over generated observations and
    concatenates the per-observation pulse batches, so the feature matrix
    has the real value-repetition structure (integral counts and ranks,
    trial-DM-ladder quantization, full-precision SNR statistics).
    """
    batches = []
    for i in range(n_observations):
        obs = generate_observation(
            GBT350DRIFT, [b1853_like()], mjd=55000.0 + i, beam=i % 7,
            seed=100 + i, n_noise_clusters=30, n_rfi_bursts=2,
            n_pulse_mimics=8, obs_length_s=300.0,
        )
        batches.append(run_rapid_observation_batch(obs).pulse_batch)
    return PulseBatch.concat(batches)


def bench_ml_serialization(n_observations: int) -> dict:
    """Round-trip pulses → ML rows → feature matrix + truth flags.

    Both paths end where stage 4 starts: the ``(n, 22)`` feature matrix
    plus the is-pulsar/is-RRAT flag vectors.  The record path parses each
    row into a ``SinglePulse``, stacks ``features.to_vector()`` per pulse
    and rebuilds the flags record by record — exactly what the
    pre-columnar pipeline's ``to_benchmark`` did; ``from_ml_lines`` lands
    on the matrix and flag columns directly.
    """
    batch = _drapid_pulse_batch(n_observations)
    records = pulse_records(batch)
    rows = batch.to_ml_lines()

    # Equivalence gates before timing anything.
    assert rows == [p.to_ml_row() for p in records]
    assert PulseBatch.from_ml_lines(rows) == batch
    assert np.array_equal(
        np.array([p.features.to_vector() for p in records]), batch.features
    )

    def naive():
        out = [p.to_ml_row() for p in records]
        pulses = [SinglePulse.from_ml_row(r) for r in out]
        # Mirrors the seed pipeline's to_benchmark() stage-4 hand-off.
        features = np.vstack([p.features.to_vector() for p in pulses])
        is_pulsar = np.array([p.source_name is not None for p in pulses])
        is_rrat = np.array([p.is_rrat for p in pulses])
        return features, is_pulsar, is_rrat

    def vectorized():
        pb = PulseBatch.from_ml_lines(batch.to_ml_lines())
        return pb.features, pb.is_pulsar, pb.is_rrat

    t_naive = _timeit(naive, repeats=2)
    t_vec = _timeit(vectorized)
    return {
        "n_observations": n_observations,
        "n_pulses": len(batch),
        "n_bytes": sum(len(r) for r in rows),
        "naive_s": round(t_naive, 4),
        "vectorized_s": round(t_vec, 4),
        "speedup": round(t_naive / t_vec, 2),
    }


def bench_feature_extraction(scales=EXTRACT_SCALES) -> list[dict]:
    rng = np.random.default_rng(1)
    spacing_of = lambda _dm: 0.05  # noqa: E731
    records = []
    for name, n_pulses, length, binsize in scales:
        m = n_pulses * length
        dms = np.sort(rng.uniform(0.0, 500.0, m))
        snrs = 5.0 + rng.exponential(2.0, m)
        times = rng.uniform(0.0, 90.0, m)
        ranges = [
            (i * length, (i + 1) * length,
             i * length + int(rng.integers(0, length)))
            for i in range(n_pulses)
        ]
        pulse_ranks = np.arange(1, n_pulses + 1)

        # Default args bind the current iteration's arrays and binsize so the
        # closures do not capture loop variables by reference (B023).
        def naive(dms=dms, snrs=snrs, times=times, ranges=ranges,
                  binsize=binsize, pulse_ranks=pulse_ranks, n_pulses=n_pulses):
            return [
                extract_pulse_features(
                    dms[a:b], snrs[a:b], times[a:b], peak_hint=h - a,
                    binsize=binsize, cluster_rank=3,
                    pulse_rank=int(pulse_ranks[i]),
                    n_peaks_in_cluster=n_pulses,
                    dm_spacing=float(spacing_of(0.0)),
                    cluster_start_time=0.0, cluster_stop_time=90.0,
                )
                for i, (a, b, h) in enumerate(ranges)
            ]

        def vectorized(dms=dms, snrs=snrs, times=times, ranges=ranges,
                       binsize=binsize, pulse_ranks=pulse_ranks, n_pulses=n_pulses):
            starts, stops, hints = np.array(ranges).T
            out = extract_segment_features(
                dms, snrs, times, starts, stops, hints,
                binsizes=np.full(n_pulses, binsize),
            )
            # The contextual columns are the caller's: NumPeaks, StartTime,
            # StopTime, ClusterRank, PulseRank, DMSpacing.
            out[:, [11, 16, 17, 18, 20]] = n_pulses, 0.0, 90.0, 3, spacing_of(0.0)
            out[:, 19] = pulse_ranks
            return out

        # Bitwise equivalence gate before timing.
        assert np.array_equal(
            vectorized(), np.array([f.to_vector() for f in naive()])
        )
        t_naive = _timeit(naive, repeats=2)
        t_vec = _timeit(vectorized)
        records.append(
            {
                "scale": name,
                "n_pulses": n_pulses,
                "spes_per_pulse": length,
                "binsize": binsize,
                "naive_s": round(t_naive, 4),
                "vectorized_s": round(t_vec, 4),
                "speedup": round(t_naive / t_vec, 2),
            }
        )
    return records


def bench_file_builders(n_observations: int) -> list[dict]:
    observations = [
        generate_observation(
            GBT350DRIFT, [b1853_like()], mjd=55000.0 + i, beam=i % 7,
            seed=60 + i, n_noise_clusters=60, n_rfi_bursts=3,
            n_pulse_mimics=15, obs_length_s=60.0,
        )
        for i in range(n_observations)
    ]
    assert build_data_file(observations) == _reference_build_data_file(observations)
    assert build_cluster_file(observations) == _reference_build_cluster_file(
        observations
    )
    out = []
    for name, batch_fn, ref_fn in (
        ("data_file", build_data_file, _reference_build_data_file),
        ("cluster_file", build_cluster_file, _reference_build_cluster_file),
    ):
        t_ref = _timeit(lambda fn=ref_fn: fn(observations), repeats=2)
        t_batch = _timeit(lambda fn=batch_fn: fn(observations))
        out.append(
            {
                "file": name,
                "n_observations": n_observations,
                "naive_s": round(t_ref, 4),
                "vectorized_s": round(t_batch, 4),
                "speedup": round(t_ref / t_batch, 2),
            }
        )
    # Strict whole-file parse (no record-path counterpart kept; for context).
    text = build_data_file(observations)
    t_parse = _timeit(lambda: parse_data_file(text))
    out.append(
        {
            "file": "data_file_parse",
            "n_observations": n_observations,
            "naive_s": None,
            "vectorized_s": round(t_parse, 4),
            "speedup": None,
        }
    )
    return out


def run_all(smoke: bool = False) -> dict:
    ml = bench_ml_serialization(n_observations=3 if smoke else 24)
    extract = bench_feature_extraction(
        tuple((name, max(n // 10, 20), length, b)
              for name, n, length, b in EXTRACT_SCALES)
        if smoke else EXTRACT_SCALES
    )
    builders = bench_file_builders(n_observations=1 if smoke else 4)
    results = {
        "benchmark": "data_plane",
        "generated_by": "benchmarks/bench_data_plane.py",
        "smoke": smoke,
        "ml_serialization": ml,
        "feature_extraction": extract,
        "file_builders": builders,
    }
    note = write_result(RESULT_JSON, results)

    rows = [
        ["ml ser+parse", f'{ml["n_pulses"]} pulses', ml["naive_s"],
         ml["vectorized_s"], f'{ml["speedup"]}x'],
    ]
    rows += [
        ["extract", f'{r["scale"]} ({r["n_pulses"]}x{r["spes_per_pulse"]})',
         r["naive_s"], r["vectorized_s"], f'{r["speedup"]}x']
        for r in extract
    ]
    rows += [
        ["builder", r["file"], r["naive_s"] if r["naive_s"] is not None else "-",
         r["vectorized_s"], f'{r["speedup"]}x' if r["speedup"] else "-"]
        for r in builders
    ]
    table = format_table(["path", "workload", "record s", "batch s", "speedup"], rows)
    emit("BENCH_data_plane", table + f"\n\n{note}")
    return results


def test_data_plane_speedups():
    """Acceptance: ≥3× ML serialize+parse, ≥2× batched feature extraction."""
    results = run_all()
    assert results["ml_serialization"]["speedup"] >= 3.0, results["ml_serialization"]
    headline = next(
        r for r in results["feature_extraction"] if r["scale"] == "headline"
    )
    assert headline["speedup"] >= 2.0, headline
    assert RESULT_JSON.exists()


if __name__ == "__main__":
    run_all(smoke="--smoke" in sys.argv[1:])
