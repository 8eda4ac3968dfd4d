"""The complete chain: dynamic spectrum → SPEs → clusters → single pulses.

The paper's "raw data" is already dedispersed and event-detected; this
example starts one step earlier, at the telescope output (Section 3's
phases 1–3), and runs everything:

1. synthesize a filterbank (channels × samples) with dispersed pulses,
2. incoherently dedisperse the whole trial-DM ladder, streamed a chunk of
   rows at a time (subband partial sums; on this coarse ladder no two
   trial DMs share a subband group, so every row is summed exactly),
3. O(n) cumulative-sum boxcar single pulse search (the PRESTO analogue)
   → SPE list,
4. customized DBSCAN clustering (columnar pair passes, no sweep),
5. Algorithm 1 peak search + 22-feature extraction, on the clusters wrapped
   in an :class:`~repro.astro.survey.Observation` — the same
   ``run_rapid_observation_batch`` every survey observation goes through.

Run:  python examples/from_voltages.py
"""

import time

from repro.astro.clustering import SinglePulseDBSCAN
from repro.astro.dispersion import DMGrid
from repro.astro.filterbank import InjectedPulse, single_pulse_search, synthesize_filterbank
from repro.astro.spe import ObservationKey
from repro.astro.survey import Observation, SurveyConfig
from repro.core.rapid import run_rapid_observation_batch
from repro.dataplane import SPEBatch


def main() -> None:
    truth = [
        InjectedPulse(time_s=2.0, dm=60.0, width_ms=20.0, amplitude=3.0),
        InjectedPulse(time_s=5.5, dm=60.0, width_ms=20.0, amplitude=2.4),
    ]
    print("=== phase 1: signal collection (synthetic filterbank) ===")
    fb = synthesize_filterbank(
        duration_s=8.0, n_channels=48, f_low_mhz=300.0, f_high_mhz=400.0,
        sample_time_s=2e-3, pulses=truth, seed=7,
    )
    print(f"filterbank: {fb.n_channels} channels x {fb.n_samples} samples "
          f"({fb.f_low_mhz:.0f}-{fb.f_high_mhz:.0f} MHz)")
    for p in truth:
        print(f"  injected pulse: t={p.time_s}s DM={p.dm} width={p.width_ms}ms")

    print("\n=== phases 2-3: batch dedispersion + O(n) boxcar search ===")
    grid = DMGrid(max_dm=130.0, bands=((10.0, 130.0, 2.5),))
    trials = grid.trial_dms()
    t0 = time.perf_counter()
    spes = single_pulse_search(fb, trials, snr_threshold=5.5)
    elapsed = time.perf_counter() - t0
    print(f"{len(spes)} single pulse events across {trials.size} trial DMs "
          f"in {elapsed * 1e3:.0f} ms (vectorized kernels)")
    # On fine DM grids the dedispersion reuses per-subband partial sums
    # across neighbouring trial DMs (~3-4x over summing every channel per
    # DM; see BENCH_frontend_kernels.json).  On this coarse 2.5-unit ladder
    # every subband group is one DM, summed at its exact shifts.

    print("\n=== stage 2: customized DBSCAN ===")
    batch = SPEBatch.from_records(spes)
    clusterer = SinglePulseDBSCAN(eps_time_s=0.15, eps_dm_steps=4.0, min_samples=3)
    labels, clusters = clusterer.fit_batch(batch, batch.dm / grid.spacing_of(batch.dm))
    print(f"{len(clusters)} clusters "
          f"(sizes {sorted(c.size for c in clusters)})")

    print("\n=== stage 3: Algorithm 1 search + feature extraction ===")
    survey = SurveyConfig(
        name="from-voltages", center_freq_mhz=350.0, bandwidth_mhz=100.0,
        sample_time_s=fb.sample_time_s, n_beams=1, obs_length_s=8.0, max_dm=grid.max_dm,
    )
    observation = Observation(
        key=ObservationKey(survey.name, 55000.0, "J0000+0000", 0),
        config=survey, grid=grid, spes=spes, labels=labels, clusters=clusters,
        _spe_batch=batch,
    )
    pulses = run_rapid_observation_batch(observation).pulse_batch
    found = len(pulses)
    for peak_dm, max_snr, start, stop, n_spes in zip(
        *(pulses.feature(name).tolist()
          for name in ("SNRPeakDM", "MaxSNR", "StartTime", "StopTime", "NumSPEs"))
    ):
        print(f"  single pulse: SNRPeakDM={peak_dm:6.1f} "
              f"MaxSNR={max_snr:5.1f} t=[{start:.2f},{stop:.2f}]s "
              f"NumSPEs={int(n_spes)}")
    print(f"\n{found} single pulses identified; "
          f"{len(truth)} were injected at DM 60 — compare SNRPeakDM above.")


if __name__ == "__main__":
    main()
