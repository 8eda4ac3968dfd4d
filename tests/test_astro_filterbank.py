"""Unit tests for the filterbank front end (collection → dedispersion →
single pulse search, the paper's Section 3 phases 1-3)."""

import numpy as np
import pytest

from repro.astro.dispersion import K_DM
from repro.astro.filterbank import (
    Filterbank,
    InjectedPulse,
    dedisperse_all,
    single_pulse_search,
    synthesize_filterbank,
)
from repro.core.rapid import search_observation_columns
from repro.dataplane import ClusterBatch


@pytest.fixture(scope="module")
def fb_with_pulse():
    pulse = InjectedPulse(time_s=2.0, dm=60.0, width_ms=20.0, amplitude=3.0)
    fb = synthesize_filterbank(
        duration_s=6.0, n_channels=32, f_low_mhz=300.0, f_high_mhz=400.0,
        sample_time_s=2e-3, pulses=[pulse], seed=1,
    )
    return fb, pulse


class TestSynthesize:
    def test_shapes_and_metadata(self):
        fb = synthesize_filterbank(1.0, n_channels=16, sample_time_s=1e-3, seed=0)
        assert fb.data.shape == (16, 1000)
        assert fb.n_channels == 16
        assert fb.duration_s == pytest.approx(1.0)
        assert fb.channel_freqs_mhz.shape == (16,)
        assert np.all(np.diff(fb.channel_freqs_mhz) > 0)

    def test_noise_statistics(self):
        fb = synthesize_filterbank(2.0, n_channels=8, noise_sigma=1.0, seed=2)
        assert fb.data.std() == pytest.approx(1.0, rel=0.05)
        assert abs(fb.data.mean()) < 0.05

    def test_pulse_is_dispersed_across_band(self, fb_with_pulse):
        fb, pulse = fb_with_pulse
        # The lowest channel peaks later than the highest channel by the
        # cold-plasma delay.
        lo_peak = int(np.argmax(fb.data[0])) * fb.sample_time_s
        hi_peak = int(np.argmax(fb.data[-1])) * fb.sample_time_s
        f = fb.channel_freqs_mhz
        expected = K_DM * pulse.dm * (f[0] ** -2 - f[-1] ** -2)
        assert lo_peak - hi_peak == pytest.approx(expected, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_filterbank(0.0)
        with pytest.raises(ValueError):
            Filterbank(np.zeros(5), 300.0, 400.0, 1e-3)
        with pytest.raises(ValueError):
            Filterbank(np.zeros((2, 5)), 400.0, 300.0, 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, fb_with_pulse, bad):
        """One NaN/inf would poison every dedispersed row and erase the
        observation silently; the ingest boundary refuses it instead."""
        fb, _pulse = fb_with_pulse
        data = fb.data.copy()
        data[5, 1500] = bad
        data[7, 20] = bad
        with pytest.raises(ValueError, match=r"2 non-finite.*channel 5, sample 1500"):
            Filterbank(data, fb.f_low_mhz, fb.f_high_mhz, fb.sample_time_s)


def dedisperse(fb, dm):
    """One trial DM: a ladder of one, whose row is the exact one."""
    return dedisperse_all(fb, [dm])[0]


class TestDedisperse:
    def test_correct_dm_concentrates_power(self, fb_with_pulse):
        fb, pulse = fb_with_pulse
        at_true = dedisperse(fb, pulse.dm).max()
        at_zero = dedisperse(fb, 0.0).max()
        at_far = dedisperse(fb, 300.0).max()
        assert at_true > at_zero
        assert at_true > at_far

    def test_peak_time_matches_injection(self, fb_with_pulse):
        fb, pulse = fb_with_pulse
        series = dedisperse(fb, pulse.dm)
        t_peak = int(np.argmax(series)) * fb.sample_time_s
        assert t_peak == pytest.approx(pulse.time_s, abs=0.05)

    def test_rejects_negative_dm(self, fb_with_pulse):
        fb, _ = fb_with_pulse
        with pytest.raises(ValueError, match="non-negative, got -1.0 at index 0"):
            dedisperse(fb, -1.0)


class TestSinglePulseSearch:
    def test_finds_injected_pulse_cluster(self, fb_with_pulse):
        fb, pulse = fb_with_pulse
        trials = np.arange(0.0, 150.0, 5.0)
        spes = single_pulse_search(fb, trials, snr_threshold=6.0)
        assert spes, "the injected pulse must be detected"
        best = max(spes, key=lambda s: s.snr)
        assert best.dm == pytest.approx(pulse.dm, abs=5.0)
        assert best.time_s == pytest.approx(pulse.time_s, abs=0.1)

    def test_pure_noise_yields_few_events(self):
        fb = synthesize_filterbank(3.0, n_channels=16, sample_time_s=2e-3, seed=5)
        spes = single_pulse_search(fb, np.arange(0, 100, 10.0), snr_threshold=7.0)
        assert len(spes) < 5

    def test_validation(self, fb_with_pulse):
        fb, _ = fb_with_pulse
        with pytest.raises(ValueError):
            single_pulse_search(fb, np.array([1.0]), snr_threshold=0.0)


class TestEndToEndChain:
    def test_filterbank_spes_feed_rapid(self, fb_with_pulse):
        """Phases 1-3 → stage 3: the detected SPE cluster runs through the
        Algorithm 1 search and yields a single pulse near the true DM."""
        fb, pulse = fb_with_pulse
        trials = np.arange(20.0, 110.0, 2.5)
        spes = single_pulse_search(fb, trials, snr_threshold=5.5)
        times = np.array([s.time_s for s in spes])
        dms = np.array([s.dm for s in spes])
        snrs = np.array([s.snr for s in spes])
        window = np.abs(times - pulse.time_s) < 0.3
        assert window.sum() >= 4
        times, dms, snrs = times[window], dms[window], snrs[window]
        box = ClusterBatch(
            ["fb"], [0], [1], [dms.size], [dms.min()], [dms.max()],
            [times.min()], [times.max()], [snrs.max()],
        )
        pulses = search_observation_columns(times, dms, snrs, box, None)
        assert len(pulses)
        assert np.abs(pulses.feature("SNRPeakDM") - pulse.dm).min() < 10.0
