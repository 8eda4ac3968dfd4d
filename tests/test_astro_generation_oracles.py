"""The generator's per-pulse helpers against their rebuild-per-call oracles.

``DMGrid`` builds its ladder once and answers ``trials_near`` with two
``searchsorted`` calls; the half-width bisection runs on a response built
once per pulsar.  These laws hold both to the bodies they replaced
(``tests/oracles/generation.py``) bit for bit: the same floats out of the
bisection — below threshold, at the 4096 cap, at every preset's
frequencies — and the same ladder elements for any window, NaN, negative
and off-the-ladder windows included.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import generation as oracle
from repro.astro.dispersion import (
    DEFAULT_BANDS,
    DMGrid,
    _smearing_response,
    smearing_snr_factor,
)
from repro.astro.pulses import _detection_half_width_dm
from repro.astro.survey import SurveyConfig

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
