"""Unit tests for population synthesis, pulse/noise/RFI generation."""

import numpy as np
import pytest

from repro.astro.dispersion import DMGrid
from repro.astro.population import Pulsar, b1853_like, synthesize_population
from repro.astro.pulses import effective_width_ms, generate_pulsar_spes
from repro.astro.rfi import (
    generate_noise_spes,
    generate_pulse_mimic_spes,
    generate_rfi_spes,
)


class TestPopulation:
    def test_deterministic_given_seed(self):
        a = synthesize_population(10, seed=3)
        b = synthesize_population(10, seed=3)
        assert a == b

    def test_rrat_count_deterministic(self):
        pop = synthesize_population(20, rrat_fraction=0.25, seed=1)
        assert sum(p.is_rrat for p in pop) == 5

    def test_dm_bounds_respected(self):
        pop = synthesize_population(50, max_dm=200.0, seed=2)
        assert all(2.0 <= p.dm <= 200.0 for p in pop)

    def test_names_unique(self):
        pop = synthesize_population(30, seed=4)
        assert len({p.name for p in pop}) == 30

    def test_dm_spans_alm_bins(self):
        pop = synthesize_population(60, max_dm=400.0, seed=5)
        dms = [p.dm for p in pop]
        assert any(d < 100 for d in dms)
        assert any(100 <= d < 175 for d in dms)
        assert any(d >= 175 for d in dms)

    def test_rrats_sporadic_and_bright(self):
        pop = synthesize_population(40, rrat_fraction=0.5, seed=6)
        rrats = [p for p in pop if p.is_rrat]
        normals = [p for p in pop if not p.is_rrat]
        assert max(p.pulse_fraction for p in rrats) < min(p.pulse_fraction for p in normals)
        assert np.mean([p.mean_snr for p in rrats]) > np.mean([p.mean_snr for p in normals])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            synthesize_population(0)
        with pytest.raises(ValueError):
            synthesize_population(5, rrat_fraction=1.5)

    def test_pulsar_validation(self):
        with pytest.raises(ValueError):
            Pulsar("bad", period_s=-1, dm=10, width_ms=5, mean_snr=10,
                   snr_sigma=0.2, pulse_fraction=0.5, is_rrat=False, sky_position="J")

    @pytest.mark.parametrize("field, value", [
        ("period_s", float("nan")), ("period_s", float("inf")),
        ("dm", float("nan")), ("dm", float("inf")),
        ("width_ms", float("nan")), ("width_ms", float("inf")),
        ("width_ms", 0.0), ("width_ms", -2.0),
        ("mean_snr", float("nan")), ("mean_snr", float("inf")), ("mean_snr", -float("inf")),
        ("snr_sigma", float("nan")), ("snr_sigma", float("inf")), ("snr_sigma", -0.1),
    ])
    def test_pulsar_refuses_bad_field_by_name(self, field, value):
        """Refused at construction, naming the field and the pulsar — not a
        crash, a silent empty SPE list, or an error at the first bright pulse."""
        kwargs = dict(period_s=0.5, dm=10.0, width_ms=5.0, mean_snr=10.0, snr_sigma=0.2)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field}.*PSR-BAD"):
            Pulsar("PSR-BAD", pulse_fraction=0.5, is_rrat=False, sky_position="J", **kwargs)

    def test_pulsar_keeps_todays_valid_edges(self):
        """Zero DM and zero SNR spread stay valid; a dim pulsar just emits nothing."""
        p = Pulsar("edge", period_s=0.5, dm=0.0, width_ms=5.0, mean_snr=-1.0,
                   snr_sigma=0.0, pulse_fraction=1.0, is_rrat=False, sky_position="J")
        spes, truths = generate_pulsar_spes(p, 5.0, DMGrid(max_dm=300.0, coarsen=10.0),
                                            350.0, 100.0, rng=np.random.default_rng(0))
        assert spes == [] and truths == []


class TestEffectiveWidth:
    def test_at_least_intrinsic(self):
        assert effective_width_ms(5.0, 0.0, 350.0, 100.0) >= 5.0

    def test_grows_with_dm(self):
        widths = [effective_width_ms(5.0, dm, 350.0, 100.0) for dm in (0, 100, 300)]
        assert widths == sorted(widths)

    def test_low_frequency_broadens_more(self):
        gbt = effective_width_ms(5.0, 200.0, 350.0, 100.0)
        palfa = effective_width_ms(5.0, 200.0, 1400.0, 300.0)
        assert gbt > palfa

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            effective_width_ms(0.0, 10.0, 350.0, 100.0)


class TestPulseGeneration:
    @pytest.fixture
    def grid(self):
        return DMGrid(max_dm=300.0, coarsen=10.0)

    def test_bright_pulsar_produces_spes(self, grid):
        rng = np.random.default_rng(0)
        spes, truths = generate_pulsar_spes(
            b1853_like(), 60.0, grid, 350.0, 100.0, rng=rng
        )
        assert len(spes) > 50
        assert len(truths) > 10

    def test_spe_cluster_peaks_near_true_dm(self, grid):
        rng = np.random.default_rng(1)
        pulsar = b1853_like()
        spes, truths = generate_pulsar_spes(pulsar, 60.0, grid, 350.0, 100.0, rng=rng)
        for truth in truths[:10]:
            members = [spes[i] for i in truth.spe_indices]
            peak = max(members, key=lambda s: s.snr)
            assert abs(peak.dm - pulsar.dm) < 10.0

    def test_spe_times_within_observation(self, grid):
        rng = np.random.default_rng(2)
        spes, _ = generate_pulsar_spes(b1853_like(), 30.0, grid, 350.0, 100.0, rng=rng)
        assert all(0.0 <= s.time_s < 30.0 for s in spes)

    def test_snrs_above_threshold(self, grid):
        rng = np.random.default_rng(3)
        spes, _ = generate_pulsar_spes(
            b1853_like(), 30.0, grid, 350.0, 100.0, snr_threshold=6.0, rng=rng
        )
        assert all(s.snr >= 6.0 for s in spes)

    def test_observation_shorter_than_period_yields_nothing(self, grid):
        slow = Pulsar("slow", period_s=100.0, dm=50.0, width_ms=5.0, mean_snr=20.0,
                      snr_sigma=0.2, pulse_fraction=1.0, is_rrat=False, sky_position="J")
        spes, truths = generate_pulsar_spes(slow, 10.0, grid, 350.0, 100.0)
        assert spes == [] and truths == []

    def test_rejects_bad_obs_length(self, grid):
        with pytest.raises(ValueError):
            generate_pulsar_spes(b1853_like(), 0.0, grid, 350.0, 100.0)

    def test_start_index_offsets_truth(self, grid):
        rng = np.random.default_rng(4)
        _spes, truths = generate_pulsar_spes(
            b1853_like(), 20.0, grid, 350.0, 100.0, rng=rng, start_index=1000
        )
        assert all(min(t.spe_indices) >= 1000 for t in truths)


class TestNoiseAndRFI:
    @pytest.fixture
    def grid(self):
        return DMGrid(max_dm=300.0, coarsen=10.0)

    def test_noise_cluster_count_scales(self, grid):
        few = generate_noise_spes(5, 60.0, grid, rng=np.random.default_rng(0))
        many = generate_noise_spes(50, 60.0, grid, rng=np.random.default_rng(0))
        assert len(many) > len(few)

    def test_noise_snr_mostly_weak(self, grid):
        spes = generate_noise_spes(100, 60.0, grid, rng=np.random.default_rng(1))
        snrs = np.array([s.snr for s in spes])
        assert np.median(snrs) < 7.0

    def test_rfi_strongest_at_low_dm(self, grid):
        spes = generate_rfi_spes(10, 60.0, grid, rng=np.random.default_rng(2))
        low = [s.snr for s in spes if s.dm < 20]
        high = [s.snr for s in spes if s.dm > 100]
        assert low and np.mean(low) > (np.mean(high) if high else 0.0)

    def test_mimics_have_peaked_profiles(self, grid):
        spes = generate_pulse_mimic_spes(1, 60.0, grid, rng=np.random.default_rng(3))
        if len(spes) >= 5:
            snrs = np.array([s.snr for s in spes])
            # Peak visibly exceeds the wings.
            assert snrs.max() > np.median(snrs) + 1.0

    def test_all_generators_respect_time_bounds(self, grid):
        rng = np.random.default_rng(4)
        for gen in (generate_noise_spes, generate_rfi_spes, generate_pulse_mimic_spes):
            spes = gen(10, 30.0, grid, rng=rng)
            assert all(0.0 <= s.time_s < 30.0 for s in spes)


class TestNoPerPulseRebuilds:
    def test_one_ladder_build_per_grid_per_observation(self, monkeypatch):
        """Every pulse, noise cluster, mimic and burst reads one ladder."""
        from repro.astro import dispersion
        from repro.astro.population import synthesize_population
        from repro.astro.rfi import RFIStormModel
        from repro.astro.survey import GBT350DRIFT, generate_observation

        built = []
        real = dispersion._build_ladder

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(dispersion, "_build_ladder", counting)
        obs = generate_observation(
            GBT350DRIFT, synthesize_population(4, seed=2), n_pulse_mimics=3,
            obs_length_s=20.0, storm=RFIStormModel(quiet_rate_hz=0.2), seed=5,
        )
        assert len(obs.pulse_truths) > 10 and obs.clusters
        assert built == [(obs.grid.max_dm, obs.grid.coarsen, obs.grid.bands)]
        # The ladder lives on the grid instance; a new call builds its own.
        generate_observation(GBT350DRIFT, synthesize_population(2, seed=3),
                             obs_length_s=10.0, seed=6)
        assert len(built) == 2
