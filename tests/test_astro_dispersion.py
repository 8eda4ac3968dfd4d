"""Unit tests for dispersion physics and trial-DM grids."""

import numpy as np
import pytest

from repro.astro import GBT350DRIFT
from repro.astro.dispersion import (
    DEFAULT_BANDS,
    DMGrid,
    dispersion_delay_s,
    dm_from_distance_kpc,
    dm_spacing_bands,
    smearing_snr_factor,
)


class TestDispersionDelay:
    def test_zero_dm_zero_delay(self):
        assert dispersion_delay_s(0.0, 300.0, 400.0) == 0.0

    def test_linear_in_dm(self):
        d1 = dispersion_delay_s(10.0, 300.0, 400.0)
        d2 = dispersion_delay_s(20.0, 300.0, 400.0)
        assert d2 == pytest.approx(2.0 * d1)

    def test_lower_frequency_larger_delay(self):
        low = dispersion_delay_s(50.0, 300.0, 400.0)
        high = dispersion_delay_s(50.0, 1300.0, 1400.0)
        assert low > high

    def test_known_value(self):
        # DM=100 across 350±50 MHz: K_DM·100·(300^-2 − 400^-2) ≈ 2.016 s.
        delay = dispersion_delay_s(100.0, 300.0, 400.0)
        assert delay == pytest.approx(2.016, rel=0.01)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dispersion_delay_s(-1.0, 300.0, 400.0)
        with pytest.raises(ValueError):
            dispersion_delay_s(1.0, 0.0, 400.0)


class TestSmearingFactor:
    def test_perfect_dm_is_unity(self):
        assert smearing_snr_factor(0.0, 5.0, 1400.0, 300.0) == pytest.approx(1.0)

    def test_monotone_decreasing_in_offset(self):
        factors = [smearing_snr_factor(d, 5.0, 1400.0, 300.0) for d in (0, 1, 5, 20, 100)]
        assert factors == sorted(factors, reverse=True)

    def test_bounded_in_unit_interval(self):
        for d in np.linspace(0, 500, 50):
            f = smearing_snr_factor(float(d), 5.0, 350.0, 100.0)
            assert 0.0 <= f <= 1.0

    def test_wider_pulses_tolerate_more_offset(self):
        narrow = smearing_snr_factor(5.0, 1.0, 350.0, 100.0)
        wide = smearing_snr_factor(5.0, 30.0, 350.0, 100.0)
        assert wide > narrow

    def test_low_frequency_more_sensitive(self):
        gbt = smearing_snr_factor(2.0, 5.0, 350.0, 100.0)
        palfa = smearing_snr_factor(2.0, 5.0, 1400.0, 300.0)
        assert gbt < palfa

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            smearing_snr_factor(1.0, 0.0, 350.0, 100.0)


class TestDMGrid:
    def test_trials_ascending_unique(self):
        grid = DMGrid(max_dm=500.0, coarsen=5.0)
        trials = grid.trial_dms()
        assert np.all(np.diff(trials) > 0)

    def test_spacing_increases_with_dm(self):
        grid = DMGrid(max_dm=2000.0)
        spacings = [grid.spacing_at(dm) for dm in (5.0, 50.0, 150.0, 500.0, 1500.0)]
        assert spacings == sorted(spacings)
        assert spacings[0] == pytest.approx(0.01)
        assert spacings[-1] == pytest.approx(2.0)

    def test_coarsen_scales_spacing(self):
        fine = DMGrid(max_dm=100.0, coarsen=1.0)
        coarse = DMGrid(max_dm=100.0, coarsen=10.0)
        assert coarse.spacing_at(10.0) == pytest.approx(10.0 * fine.spacing_at(10.0))
        assert coarse.trial_dms().size < fine.trial_dms().size

    @pytest.mark.parametrize("grid", [
        GBT350DRIFT.dm_grid(coarsen=10),
        DMGrid(max_dm=2000.0),
        # A ladder that starts above zero and has a gap between bands.
        DMGrid(max_dm=100.0, bands=((5.0, 10.0, 0.1), (20.0, 50.0, 0.5))),
    ])
    def test_spacing_at_agrees_with_spacing_of(self, grid):
        """At every band edge, below the first start, at/after the last stop."""
        first, last = grid.bands[0], grid.bands[-1]
        dms = [first[0] - 1.0, np.nextafter(first[0], -np.inf), last[1],
               last[1] + 1.0, np.inf]
        for start, stop, _step in grid.bands:
            dms += [start, np.nextafter(start, np.inf), np.nextafter(stop, -np.inf), stop]
        scalar = [grid.spacing_at(dm) for dm in dms]
        assert scalar == grid.spacing_of(np.array(dms)).tolist()
        assert scalar[0] == scalar[1] == first[2] * grid.coarsen
        assert scalar[2] == scalar[3] == scalar[4] == last[2] * grid.coarsen

    def test_trials_near_window(self):
        grid = DMGrid(max_dm=300.0, coarsen=10.0)
        near = grid.trials_near(100.0, 5.0)
        assert near.size > 0
        assert np.all(np.abs(near - 100.0) <= 5.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DMGrid(max_dm=0.0)
        with pytest.raises(ValueError):
            DMGrid(max_dm=10.0, coarsen=0.5)

    @pytest.mark.parametrize("field, value", [
        ("max_dm", float("nan")), ("max_dm", float("inf")),
        ("coarsen", float("nan")), ("coarsen", float("inf")),
    ])
    def test_rejects_non_finite_fields_by_name(self, field, value):
        """NaN/inf max_dm used to build the whole 0-5000 ladder, inf coarsen a
        4-trial one, NaN coarsen failed later inside np.arange."""
        with pytest.raises(ValueError, match=field):
            DMGrid(**{field: value})

    def test_ladder_is_read_only_and_shared(self):
        grid = DMGrid(max_dm=300.0, coarsen=10.0)
        ladder = grid.trial_dms()
        first = ladder.copy()
        with pytest.raises(ValueError):
            ladder[0] = 99.0
        near = grid.trials_near(100.0, 20.0)
        with pytest.raises(ValueError):
            near[:] = 0.0
        with pytest.raises(ValueError):
            np.asarray(grid.trial_dms())[-1] = -1.0
        assert grid.trial_dms() is ladder
        assert np.array_equal(grid.trial_dms(), first)
        assert np.array_equal(grid.trials_near(100.0, 20.0), near)

    def test_equality_hash_and_pickle_ignore_the_ladder(self):
        import copy
        import pickle

        built = DMGrid(max_dm=500.0, coarsen=10.0)
        built.trial_dms()
        fresh = DMGrid(max_dm=500.0, coarsen=10.0)
        assert built == fresh and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh)
        assert pickle.dumps(built) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(built))
        assert back == built and "_ladder" not in vars(back)
        assert np.array_equal(back.trial_dms(), built.trial_dms())
        assert "_ladder" not in vars(copy.copy(built))
        assert DMGrid(max_dm=500.0, coarsen=5.0) != built

    def test_bands_exposed(self):
        assert dm_spacing_bands() == DEFAULT_BANDS


class TestDMFromDistance:
    def test_proportional(self):
        assert dm_from_distance_kpc(2.0) == pytest.approx(2 * dm_from_distance_kpc(1.0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dm_from_distance_kpc(-1.0)
