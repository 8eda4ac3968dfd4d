"""Figure 1: the B1853+01 candidate plot and the granularity contrast.

The paper's Fig. 1 shows a single pulse search candidate for the known
pulsar B1853+01 with two individual single pulses highlighted; Section 5.1
notes that DPG-mode RAPID finds **1** candidate in this data while the
single pulse version finds **188**.  This benchmark regenerates:

- the three subplot series (SNR vs DM, DM vs time, SNR vs time) as data;
- the SP-vs-DPG candidate counts (same orders-of-magnitude contrast).
"""

import numpy as np
import pytest

from _bench_utils import emit, format_table
from repro.astro import GBT350DRIFT, generate_observation
from repro.astro.population import b1853_like
from repro.core.rapid import run_rapid_dpg, run_rapid_observation_batch


@pytest.fixture(scope="module")
def b1853_observation():
    return generate_observation(
        GBT350DRIFT, [b1853_like()], seed=1853, n_noise_clusters=60,
        n_rfi_bursts=2, n_pulse_mimics=5,
    )


def test_fig1_candidate_plot_data(benchmark, b1853_observation):
    obs = b1853_observation

    def search():
        return run_rapid_observation_batch(obs), run_rapid_dpg(obs)

    (result, n_dpg) = benchmark(search)
    n_sp = result.n_pulses
    pulses = result.pulse_batch
    positives = pulses.take(np.nonzero(pulses.source_name == "B1853+01")[0])

    # The headline contrast: SP granularity finds orders of magnitude more
    # candidates than DPG granularity (paper: 188 vs 1).
    assert n_dpg <= 5
    assert n_sp > 30 * max(n_dpg, 1)

    # Emphasize two individual single pulses, as Fig. 1 does.
    emphasized = positives.take(
        np.argsort(-positives.feature("MaxSNR"), kind="stable")[:2]
    )
    rows = [
        [f"single pulse#{i + 1}", *values]
        for i, values in enumerate(zip(
            (emphasized.spe_stop - emphasized.spe_start).tolist(),
            *(emphasized.feature(name).tolist()
              for name in ("SNRPeakDM", "MaxSNR", "StartTime", "StopTime")),
        ))
    ]
    dms, snrs, times = obs.spe_batch.dm, obs.spe_batch.snr, obs.spe_batch.time_s
    text = (
        f"observation: {len(obs.spes)} SPEs, {len(obs.clusters)} clusters\n"
        f"subplot series: SNR vs DM ({len(dms)} points, DM range "
        f"{dms.min():.1f}-{dms.max():.1f}), DM vs time (t range "
        f"{times.min():.1f}-{times.max():.1f} s), SNR range "
        f"{snrs.min():.1f}-{snrs.max():.1f}\n"
        f"single pulses found (SP granularity): {n_sp}\n"
        f"DPGs found (2016 granularity):        {n_dpg}\n"
        f"paper reference:                      188 vs 1\n\n"
        + format_table(
            ["pulse", "n_SPEs", "SNRPeakDM", "MaxSNR", "StartTime", "StopTime"], rows
        )
    )
    emit("fig1_candidate", text)
    benchmark.extra_info["single_pulses"] = n_sp
    benchmark.extra_info["dpgs"] = n_dpg
