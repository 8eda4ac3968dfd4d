"""Golden digests of the survey generator: every byte and every RNG draw.

Each case hashes one ``generate_observation`` output — SPE records, DBSCAN
labels, clusters, cluster truth and pulse truths, through ``repr`` so a
NumPy scalar where a Python number was (or a changed last bit) fails too —
and compares it with the digest the generator produced before the
per-grid ladder and the per-pulsar smearing response.  Both presets at
``grid_coarsen`` 1 and 10, two seeds each, and the non-default paths:
dispersed-RFI mimics, ``gain != 1`` and an RFI storm.  A population with a
pulsar beyond the GBT350Drift ladder's end is part of the sky.  Two more
cases are pointings of the end-to-end survey workload's shape (60 s, 40
noise clusters, two pulsars of its fixed sky), the input whose generation
its ``setup_s`` times.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.astro.dispersion import DMGrid
from repro.astro.population import Pulsar, synthesize_population
from repro.astro.rfi import RFIStormModel
from repro.astro.survey import GBT350DRIFT, PALFA, generate_observation

SKY = synthesize_population(5, seed=7, max_dm=700.0) + [
    Pulsar("PSR-FAR", period_s=0.7, dm=520.0, width_ms=8.0, mean_snr=12.0, snr_sigma=0.3,
           pulse_fraction=0.9, is_rrat=False, sky_position="J1900+0000"),
]


def observation_digest(obs) -> str:
    h = hashlib.sha256()
    for part in (obs.spes, obs.labels.tolist(), str(obs.labels.dtype), obs.clusters,
                 sorted(obs.cluster_truth.items()), obs.pulse_truths):
        h.update(repr(part).encode())
    return h.hexdigest()


def _case(survey, coarsen, seed, **extra):
    return generate_observation(
        survey, SKY[:3] + SKY[5:] if survey is GBT350DRIFT else SKY[2:], mjd=55000.0 + seed,
        n_noise_clusters=20, n_rfi_bursts=2, grid_coarsen=coarsen, seed=seed,
        obs_length_s=20.0, **extra,
    )


#: The end-to-end survey workload's sky (``synthesize_population(6, seed=3)``).
E2E_SKY = synthesize_population(6, seed=3)


def _e2e_case(seed):
    return generate_observation(
        GBT350DRIFT, [E2E_SKY[seed], E2E_SKY[seed + 1]], mjd=55000.0 + seed, beam=0,
        n_noise_clusters=40, n_rfi_bursts=2, grid_coarsen=10.0, seed=seed,
        obs_length_s=60.0,
    )


CASES = {
    "gbt-c10-s0": lambda: _case(GBT350DRIFT, 10.0, 0),
    "gbt-c10-s1": lambda: _case(GBT350DRIFT, 10.0, 1),
    "gbt-c1-s0": lambda: _case(GBT350DRIFT, 1.0, 0),
    "gbt-c1-s1": lambda: _case(GBT350DRIFT, 1.0, 1),
    "palfa-c10-s0": lambda: _case(PALFA, 10.0, 0),
    "palfa-c10-s1": lambda: _case(PALFA, 10.0, 1),
    "palfa-c1-s0": lambda: _case(PALFA, 1.0, 0),
    "palfa-c1-s1": lambda: _case(PALFA, 1.0, 1),
    "gbt-mimics": lambda: _case(GBT350DRIFT, 10.0, 2, n_pulse_mimics=6),
    "gbt-gain": lambda: _case(GBT350DRIFT, 10.0, 3, gain=0.8),
    "palfa-storm": lambda: _case(
        PALFA, 10.0, 4, storm=RFIStormModel(quiet_rate_hz=0.2, start_in_storm=True)
    ),
    "e2e-s0": lambda: _e2e_case(0),
    "e2e-s1": lambda: _e2e_case(1),
}

GOLDEN = {
    "e2e-s0": "8de76613ed1b6340352c1b30a780b012ac3571e8acd083944bf80cf12a2df97b",
    "e2e-s1": "fdb3fd1d42bd80ddc3e54e696646460dc0b8899022dc4ed8271ecba360a9230a",
    "gbt-c1-s0": "6ff60e516cdd7da4827e5b81931eeee284dfe699edd4f5b75d50ee19392594d1",
    "gbt-c1-s1": "5c0d7b3caa02477e49f6900ad64687cd7054a6868c999e67deaedf65bfbf8689",
    "gbt-c10-s0": "a180f6d7650d4f8d8918e7961be0b25dcf87728f6193c56eb69f62bb6f346036",
    "gbt-c10-s1": "d4c8683df39546f67155714258bfca30ca3b88d05ebf35e11e501e35fd8287a7",
    "gbt-gain": "c4ef6baea0657bb341527c1261ab41a0d5b7275122912574630c0c2ca0f44e72",
    "gbt-mimics": "91af575bb133a45503a66a896a3dbddf94276aa83b4a964460fc890a9d725d15",
    "palfa-c1-s0": "4d8c0df4a989c8d030328482c604676707291432168b0b27f40fd8cacd12df0e",
    "palfa-c1-s1": "3c425e8d7708a76850a836c0b44b70d91141f523ecd384473347960e1d259bdb",
    "palfa-c10-s0": "60779a77a307ff9325233bad1f25deec5259b07977e2ee50563237c98e30b2b1",
    "palfa-c10-s1": "05a8aa746b3a104a56a1a918706286f330545c6371be491bedeb9569680e49d0",
    "palfa-storm": "371d76a4ba41a107bd03508907277ac04e97bae363896fbc6a62b1b70e8c7df3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_generator_output_matches_golden_digest(name):
    assert observation_digest(CASES[name]()) == GOLDEN[name]


#: ``pickle.dumps(DMGrid(max_dm=500.0, coarsen=10.0), protocol=4)``: the grid
#: rides in D-RAPID task payloads, so its pickled state must stay its fields.
GRID_PICKLE_SHA256 = "b754375586abe9468aff6d2ca7bd5dc49a23ebc2d9eb64f4991e9b9cdb327b11"


def test_grid_pickle_is_its_fields_alone():
    grid = DMGrid(max_dm=500.0, coarsen=10.0)
    before = pickle.dumps(grid, protocol=4)
    grid.trials_near(100.0, 5.0)  # build the ladder
    after = pickle.dumps(grid, protocol=4)
    assert before == after
    assert hashlib.sha256(after).hexdigest() == GRID_PICKLE_SHA256
