"""The generator's per-pulse helpers against their rebuild-per-call oracles.

``DMGrid`` builds its ladder once and answers ``trials_near`` with two
``searchsorted`` calls; the half-width bisection runs on a response built
once per pulsar; and a pulse's footprint is read off the pulsar's table of
its response at each trial (``_FootprintTable``), with the bisection as the
fallback.  These laws hold all three to the bodies they replaced
(``tests/oracles/generation.py``) bit for bit: the same floats out of the
bisection — below threshold, at the 4096 cap, at every preset's
frequencies — the same ladder elements for any window, NaN, negative and
off-the-ladder windows included, and the same footprint as the bisection
plus ``trials_near`` for any sequence of peaks, including peaks a few ulp
either side of a trial's threshold crossing.  The whole pulsar generator
(draws in the loop, one evaluation pass per pulsar) is held to the
per-pulse loop it replaced: every record, every truth, and the generator's
state afterwards, so no draw moved.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import generation as oracle
from repro.astro.dispersion import (
    DEFAULT_BANDS,
    DMGrid,
    _smearing_response,
    smearing_snr_factor,
)
from repro.astro import pulses
from repro.astro.population import Pulsar
from repro.astro.pulses import _detection_half_width_dm, _FootprintTable, generate_pulsar_spes
from repro.astro.survey import GBT350DRIFT, PALFA, SurveyConfig

#: (center frequency, bandwidth) of every survey preset, GBT350Drift and PALFA first.
PRESET_BANDS = [(c.center_freq_mhz, c.bandwidth_mhz) for c in SurveyConfig.presets().values()]

widths = st.floats(1e-3, 200.0)
thresholds = st.floats(0.5, 50.0)
peaks = st.one_of(st.floats(0.0, 60.0), st.floats(0.0, 1e7))


def _same(a: float, b: float) -> bool:
    return type(a) is type(b) and float(a).hex() == float(b).hex()


@settings(max_examples=300, deadline=None)
@given(widths, st.sampled_from(PRESET_BANDS), thresholds, peaks)
@example(6.0, (350.0, 100.0), 5.0, 5.0)           # peak == threshold
@example(6.0, (350.0, 100.0), 5.0, 4.999)         # peak below threshold
@example(200.0, (1400.0, 300.0), 5.0, 1e4)        # still above threshold at the cap
@example(1e-3, (350.0, 100.0), 5.0, 5.000001)     # barely above, narrow pulse
def test_half_width_matches_oracle(width_ms, band, threshold, peak_snr):
    f, bw = band
    live = _detection_half_width_dm(_smearing_response(width_ms, f, bw), threshold, peak_snr)
    ref = oracle.detection_half_width_dm(width_ms, f, bw, threshold, peak_snr)
    assert _same(live, ref)


def test_half_width_cap_is_reached():
    """A wide, very bright PALFA pulse clears threshold 4096 DM units out."""
    width_ms, (f, bw), threshold, peak = 200.0, (1400.0, 300.0), 5.0, 1e4
    assert peak * oracle.smearing_snr_factor(4096.0, width_ms, f, bw) > threshold
    live = _detection_half_width_dm(_smearing_response(width_ms, f, bw), threshold, peak)
    assert live == oracle.detection_half_width_dm(width_ms, f, bw, threshold, peak) == 4096.0


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-1e4, 1e4), st.floats()), widths, st.sampled_from(PRESET_BANDS))
@example(0.0, 5.0, (350.0, 100.0))
@example(1e-12, 5.0, (350.0, 100.0))
@example(-0.0, 5.0, (1400.0, 300.0))
def test_smearing_factor_matches_oracle(delta_dm, width_ms, band):
    f, bw = band
    ref = oracle.smearing_snr_factor(delta_dm, width_ms, f, bw)
    assert _same(smearing_snr_factor(delta_dm, width_ms, f, bw), ref)
    assert _same(_smearing_response(width_ms, f, bw)(delta_dm), ref)


grids = st.builds(
    DMGrid,
    max_dm=st.one_of(st.floats(1e-3, 6000.0), st.sampled_from([30.0, 100.0, 500.0, 1000.0])),
    coarsen=st.one_of(st.floats(1.0, 100.0), st.sampled_from([1.0, 10.0])),
    bands=st.sampled_from([
        DEFAULT_BANDS,
        # Starts above zero, with a gap between bands.
        ((5.0, 10.0, 0.1), (20.0, 50.0, 0.5)),
    ]),
)
dms = st.one_of(st.floats(-1000.0, 7000.0), st.floats())
half_widths = st.one_of(st.floats(-10.0, 200.0), st.floats())


@settings(max_examples=300, deadline=None)
@given(grids, dms, half_widths)
@example(DMGrid(max_dm=500.0, coarsen=10.0), 100.0, math.nan)
@example(DMGrid(max_dm=500.0, coarsen=10.0), math.nan, 5.0)
@example(DMGrid(max_dm=500.0, coarsen=10.0), 100.0, -5.0)
@example(DMGrid(max_dm=500.0, coarsen=10.0), -math.inf, math.inf)   # lo -inf, hi NaN
@example(DMGrid(max_dm=500.0, coarsen=10.0), math.inf, math.inf)    # lo NaN, hi inf
@example(DMGrid(max_dm=500.0, coarsen=10.0), 520.0, 30.0)           # off the top end
@example(DMGrid(max_dm=500.0, coarsen=10.0), -20.0, 25.0)           # off the bottom end
@example(DMGrid(max_dm=500.0, coarsen=10.0), 100.0, 0.0)            # exactly one trial
@example(DMGrid(max_dm=3.0, bands=((5.0, 10.0, 0.1),)), 0.0, 1.0)   # the [0.0] ladder
def test_trials_near_matches_oracle(grid, dm, half_width):
    live = grid.trials_near(dm, half_width)
    ref = oracle.trials_near(grid, dm, half_width)
    assert live.dtype == ref.dtype and live.shape == ref.shape
    assert live.tobytes() == ref.tobytes()


@settings(max_examples=100, deadline=None)
@given(grids)
def test_ladder_matches_oracle(grid):
    live = grid.trial_dms()
    ref = oracle.trial_dms(grid.max_dm, grid.coarsen, grid.bands)
    assert live.dtype == ref.dtype and live.tobytes() == ref.tobytes()


# -- footprints: the table against the bisection + trials_near ---------------
def _oracle_footprint(grid, dm, width_ms, band, threshold, peak_snr):
    f, bw = band
    half_width = oracle.detection_half_width_dm(width_ms, f, bw, threshold, peak_snr)
    return oracle.trials_near(grid, dm, half_width)


def _assert_same_trials(live, ref):
    assert live.dtype == ref.dtype and live.shape == ref.shape
    assert live.tobytes() == ref.tobytes()


footprint_grids = st.one_of(
    st.builds(DMGrid, max_dm=st.sampled_from([GBT350DRIFT.max_dm, PALFA.max_dm]),
              coarsen=st.sampled_from([1.0, 10.0])),
    # A ladder longer than the bisection's 4096 cap.
    st.just(DMGrid(max_dm=5000.0, coarsen=10.0)),
)
footprint_dms = st.one_of(
    st.floats(0.0, 1100.0), st.sampled_from([0.0, 29.99, 100.0, 520.0, 999.5])
)
footprint_peaks = st.lists(st.one_of(st.floats(0.0, 60.0), st.floats(0.0, 1e7)),
                           min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(widths, st.sampled_from(PRESET_BANDS[:2]), footprint_grids, footprint_dms,
       footprint_peaks)
@example(6.0, (350.0, 100.0), DMGrid(max_dm=500.0, coarsen=10.0), 100.0, [5.0, 4.0, 60.0, 6.0])
@example(200.0, (1400.0, 300.0), DMGrid(max_dm=5000.0, coarsen=10.0), 0.0, [1e4])  # the cap
@example(20.0, (350.0, 100.0), DMGrid(max_dm=500.0, coarsen=1.0), 520.0, [40.0, 1e6])
def test_footprint_table_matches_oracle(width_ms, band, grid, dm, peaks):
    """One table answers a pulsar's pulses in any order, growing as it goes."""
    table = _FootprintTable(grid, dm, _smearing_response(width_ms, *band), 5.0)
    for peak in peaks:
        _assert_same_trials(table.trials(peak), _oracle_footprint(grid, dm, width_ms, band, 5.0, peak))


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


ADVERSARIAL = [
    # (survey, coarsen, dm, width_ms): on a trial, between trials, both bands.
    (GBT350DRIFT, 10.0, 100.0, 6.0),
    (GBT350DRIFT, 1.0, 57.123, 3.0),
    (GBT350DRIFT, 10.0, 12.34, 40.0),
    (PALFA, 10.0, 250.05, 2.0),
    (PALFA, 1.0, 33.3, 0.5),
]


@pytest.mark.parametrize("survey, coarsen, dm, width_ms", ADVERSARIAL)
def test_footprint_at_threshold_crossings(monkeypatch, survey, coarsen, dm, width_ms):
    """Peaks 1–4 ulp either side of ``threshold / r_j`` at a boundary trial
    ``j``, and 1e-6 either side: the footprint is the oracle's every time.
    The ulp-nudged peaks are inside the band and take the bisection, as does
    a peak at or below threshold (its footprint is a trial exactly at the
    DM, if there is one); the others are read off the table."""
    calls = []

    def counted(response, threshold, peak_snr):
        calls.append(peak_snr)
        return _detection_half_width_dm(response, threshold, peak_snr)

    monkeypatch.setattr(pulses, "_detection_half_width_dm", counted)
    band = (survey.center_freq_mhz, survey.bandwidth_mhz)
    threshold = survey.snr_threshold
    grid = DMGrid(max_dm=survey.max_dm, coarsen=coarsen)
    response = _smearing_response(width_ms, *band)
    table = _FootprintTable(grid, dm, response, threshold)
    ladder = grid.trial_dms()
    c = int(np.searchsorted(ladder, dm))
    nudged, scaled = set(), set()
    for j in range(max(c - 4, 0), min(c + 4, ladder.size)):
        crossing = threshold / response(float(ladder[j] - dm))
        nudged.update(_nudged(crossing, ulps) for ulps in (-4, -3, -2, -1, 1, 2, 3, 4))
        scaled.update((crossing * (1 - 1e-6), crossing * (1 + 1e-6)))
    for peak in sorted(nudged | scaled):
        _assert_same_trials(
            table.trials(peak), _oracle_footprint(grid, dm, width_ms, band, threshold, peak)
        )
    assert set(calls) == nudged | {p for p in scaled if p <= threshold}


# -- the generator: one pass per pulsar against the per-pulse loop -----------
pulsars = st.builds(
    Pulsar,
    name=st.just("PSR-LAW"),
    period_s=st.floats(0.05, 2.0),
    dm=st.one_of(st.floats(0.0, 1100.0), st.sampled_from([0.0, 100.0, 520.0])),
    width_ms=st.floats(0.2, 40.0),
    mean_snr=st.floats(0.0, 80.0),
    snr_sigma=st.floats(0.0, 1.0),
    pulse_fraction=st.floats(0.05, 1.0),
    is_rrat=st.booleans(),
    sky_position=st.just("J0000+0000"),
)


@settings(max_examples=150, deadline=None)
@given(pulsars, st.sampled_from([GBT350DRIFT, PALFA]), st.sampled_from([1.0, 10.0]),
       st.floats(0.5, 8.0), st.integers(0, 2**32 - 1), st.integers(0, 500))
def test_generator_matches_per_pulse_loop(pulsar, survey, coarsen, obs_length_s, seed, start):
    grid = DMGrid(max_dm=survey.max_dm, coarsen=coarsen)
    args = (pulsar, obs_length_s, grid, survey.center_freq_mhz, survey.bandwidth_mhz)
    kwargs = dict(sample_time_s=survey.sample_time_s, snr_threshold=survey.snr_threshold,
                  start_index=start)
    live_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    live = generate_pulsar_spes(*args, rng=live_rng, **kwargs)
    ref = oracle._reference_generate_pulsar_spes(*args, rng=ref_rng, **kwargs)
    assert repr(live) == repr(ref)
    assert live_rng.bit_generator.state == ref_rng.bit_generator.state
