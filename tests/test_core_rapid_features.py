"""Unit tests for RAPID (cluster/observation search) and feature extraction.

The behaviour is asserted on what runs — ``search_observation_columns`` /
``run_rapid_observation_batch`` columns; the per-cluster record path these
classes were first written against is the oracle of
``tests/test_core_rapid_columns.py``.
"""

import numpy as np
import pytest
from oracles.record_path import extract_pulse_features

from repro.astro.dispersion import DMGrid
from repro.core.features import FEATURE_NAMES, extract_segment_features
from repro.core.rapid import (
    run_rapid_dpg,
    run_rapid_observation_batch,
    search_observation_columns,
)
from repro.dataplane import ClusterBatch, PulseBatch


def synthetic_cluster(center_dm=50.0, width=3.0, height=12.0, n=60, t0=5.0):
    dms = np.linspace(center_dm - 10, center_dm + 10, n)
    snrs = 5.5 + height * np.exp(-0.5 * ((dms - center_dm) / width) ** 2)
    times = np.full(n, t0) + np.linspace(-0.01, 0.01, n)
    return times, dms, snrs


def search_cluster(times, dms, snrs, cluster_rank=1, grid=None, observation_key="",
                   cluster_id=0, source_name=None, is_rrat=False) -> PulseBatch:
    """``search_observation_columns`` on one cluster: the box of its SPEs."""
    box = ClusterBatch(
        [observation_key], [cluster_id], [cluster_rank], [len(dms)],
        [dms.min()], [dms.max()], [times.min()], [times.max()], [snrs.max()],
        [source_name], [is_rrat],
    )
    return search_observation_columns(times, dms, snrs, box, grid, observation_key)


class TestRunRapidOnCluster:
    def test_finds_the_pulse(self):
        pulses = search_cluster(*synthetic_cluster())
        assert len(pulses) == 1
        assert pulses.feature("SNRPeakDM")[0] == pytest.approx(50.0, abs=1.0)

    def test_multiple_peaks_ranked_by_brightness(self):
        t1, d1, s1 = synthetic_cluster(center_dm=40.0, height=15.0)
        t2, d2, s2 = synthetic_cluster(center_dm=80.0, height=8.0)
        times = np.concatenate([t1, t2])
        dms = np.concatenate([d1, d2])
        snrs = np.concatenate([s1, s2])
        pulses = search_cluster(times, dms, snrs)
        assert len(pulses) == 2
        brightest = np.argmin(pulses.feature("PulseRank"))
        assert pulses.feature("SNRPeakDM")[brightest] == pytest.approx(40.0, abs=1.5)
        assert set(pulses.feature("PulseRank")) == {1.0, 2.0}
        assert (pulses.feature("NumPeaks") == 2.0).all()

    def test_tiny_cluster_skipped(self):
        pulses = search_cluster(np.array([1.0]), np.array([2.0]), np.array([6.0]))
        assert len(pulses) == 0

    def test_provenance_carried(self):
        pulses = search_cluster(
            *synthetic_cluster(), cluster_rank=3,
            observation_key="K", cluster_id=17, source_name="PSR-X", is_rrat=True,
        )
        assert pulses.observation_key[0] == "K"
        assert pulses.cluster_id[0] == 17
        assert pulses.source_name[0] == "PSR-X"
        assert pulses.is_rrat[0]
        assert pulses.feature("ClusterRank")[0] == 3.0

    def test_unsorted_input_is_sorted_internally(self):
        times, dms, snrs = synthetic_cluster()
        order = np.random.default_rng(0).permutation(len(dms))
        a = search_cluster(times, dms, snrs)
        b = search_cluster(times[order], dms[order], snrs[order])
        assert len(a) == len(b) == 1
        assert a == b


class TestRunRapidObservation:
    def test_pulsar_observation_yields_positive_pulses(self, observation):
        result = run_rapid_observation_batch(observation)
        assert result.n_pulses > 0
        assert result.pulse_batch.is_pulsar.any()
        assert result.n_clusters_searched + result.n_clusters_skipped == len(observation.clusters)

    def test_single_pulse_granularity_beats_dpg(self, observation):
        """The Fig. 1 contrast: SP search finds orders of magnitude more
        pulses than the DPG-mode aggregate search."""
        sp = run_rapid_observation_batch(observation).n_pulses
        dpg = run_rapid_dpg(observation)
        assert sp > 20 * max(dpg, 1)

    def test_min_cluster_size_filters(self, observation):
        strict = run_rapid_observation_batch(observation, min_cluster_size=1000)
        assert strict.n_clusters_searched == 0
        assert strict.n_pulses == 0


class TestMlRowRoundtrip:
    def test_roundtrip(self, observation):
        pulses = run_rapid_observation_batch(observation).pulse_batch
        assert PulseBatch.from_ml_lines(pulses.to_ml_lines()) == pulses

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError):
            PulseBatch.from_ml_lines(["a,b,c"])


class TestFeatureExtraction:
    def _features(self, peak_hint=0):
        """Named feature values of the synthetic cluster taken as one pulse."""
        times, dms, snrs = synthetic_cluster()
        row = extract_segment_features(
            dms, snrs, times, [0], [len(dms)], [peak_hint], [5]
        )
        assert row.shape == (1, 22)
        return dict(zip(FEATURE_NAMES, row[0]))

    def test_feature_count_and_order(self):
        pulses = search_cluster(*synthetic_cluster())
        assert pulses.features.shape == (1, 22)
        for i, name in enumerate(FEATURE_NAMES):
            assert pulses.feature(name) == pulses.features[:, i]

    def test_summary_statistics_correct(self):
        times, dms, snrs = synthetic_cluster()
        feats = self._features()
        assert feats["NumSPEs"] == len(dms)
        assert feats["MaxSNR"] == pytest.approx(snrs.max())
        assert feats["MinSNR"] == pytest.approx(snrs.min())
        assert feats["AvgSNR"] == pytest.approx(snrs.mean())
        assert feats["DMRange"] == pytest.approx(dms.max() - dms.min())
        assert feats["SNRPeakDM"] == pytest.approx(dms[np.argmax(snrs)])

    def test_table1_features(self):
        t1, d1, s1 = synthetic_cluster(center_dm=40.0, height=15.0)
        t2, d2, s2 = synthetic_cluster(center_dm=80.0, height=8.0, t0=5.5)
        times = np.concatenate([t1, t2])
        grid = DMGrid(max_dm=200.0, coarsen=2.0)
        pulses = search_cluster(
            times, np.concatenate([d1, d2]), np.concatenate([s1, s2]),
            cluster_rank=4, grid=grid,
        )
        assert (pulses.feature("ClusterRank") == 4.0).all()
        assert pulses.feature("PulseRank").tolist() == [1.0, 2.0]
        assert pulses.feature("DMSpacing").tolist() == [
            grid.spacing_at(dm) for dm in pulses.feature("SNRPeakDM")
        ]
        # StartTime/StopTime are the *cluster's* time extent, on every pulse.
        assert (pulses.feature("StartTime") == times.min()).all()
        assert (pulses.feature("StopTime") == times.max()).all()

    def test_snr_ratio_definition(self):
        times, dms, snrs = synthetic_cluster()
        peak_hint = 10
        feats = self._features(peak_hint=peak_hint)
        assert feats["SNRRatio"] == pytest.approx(snrs[peak_hint] / snrs.max())
        assert 0.0 <= feats["SNRRatio"] <= 1.0

    def test_peak_width_half_max(self):
        feats = self._features()
        assert 0.0 < feats["PeakWidthDM"] < 21.0

    def test_empty_pulse_rejected(self):
        """The live path never forms an empty segment (a range spans at
        least one bin); the per-pulse oracle refuses one outright."""
        empty = np.array([])
        with pytest.raises(ValueError):
            extract_pulse_features(
                empty, empty, empty, peak_hint=0, binsize=5, cluster_rank=1,
                pulse_rank=1, n_peaks_in_cluster=1, dm_spacing=0.5,
                cluster_start_time=0.0, cluster_stop_time=0.0,
            )

    def test_non_finite_snrs_match_the_oracle(self):
        """A NaN or infinite SNR makes the spread NaN, and the skew with it:
        the oracle's ``std <= 1e-12`` test is False for NaN.  The columnar
        path used to return SNRSkew 0.0 there."""
        dms = np.arange(10.0)
        for bad in (np.nan, np.inf, -np.inf):
            snrs = 5.0 + np.arange(10.0)
            snrs[3] = bad
            with np.errstate(invalid="ignore"):
                got = extract_segment_features(dms, snrs, dms, [0], [10], [0], [1])[0]
                want = extract_pulse_features(
                    dms, snrs, dms, peak_hint=0, binsize=1, cluster_rank=0,
                    pulse_rank=0, n_peaks_in_cluster=0, dm_spacing=0.0,
                    cluster_start_time=0.0, cluster_stop_time=0.0,
                ).to_vector()
            assert got.tobytes() == want.tobytes(), bad
            assert np.isnan(got[FEATURE_NAMES.index("SNRSkew")])

    def test_length_mismatch_rejected(self):
        times, dms, snrs = synthetic_cluster()
        with pytest.raises(ValueError, match=r"equal length, got 2, 60 and 60"):
            search_cluster(np.array([1.0, 2.0]), dms, snrs)

    def test_feature_names_constant(self):
        assert len(FEATURE_NAMES) == 22
        assert FEATURE_NAMES[16:] == (
            "StartTime", "StopTime", "ClusterRank", "PulseRank", "DMSpacing", "SNRRatio",
        )
