"""Unit tests for the customized DBSCAN clustering."""

import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from oracles.frontend import _reference_merge_artifact_clusters, _reference_summarize
from repro.astro.clustering import NOISE, Cluster, SinglePulseDBSCAN


def run_dbscan(times, dms, snrs=None, steps=None, **kwargs):
    times = np.asarray(times, dtype=float)
    dms = np.asarray(dms, dtype=float)
    snrs = np.asarray(snrs if snrs is not None else np.ones_like(times), dtype=float)
    steps = np.asarray(steps if steps is not None else dms, dtype=float)
    return SinglePulseDBSCAN(**kwargs).fit(times, dms, snrs, steps)


class TestDBSCANCore:
    def test_two_well_separated_blobs(self):
        rng = np.random.default_rng(0)
        t = np.concatenate([rng.normal(1.0, 0.01, 30), rng.normal(9.0, 0.01, 30)])
        d = np.concatenate([rng.normal(10.0, 0.5, 30), rng.normal(50.0, 0.5, 30)])
        labels, clusters = run_dbscan(t, d)
        assert len(clusters) == 2
        assert set(labels) <= {0, 1, NOISE}

    def test_isolated_points_are_noise(self):
        t = np.array([0.0, 50.0, 100.0])
        d = np.array([0.0, 100.0, 200.0])
        labels, clusters = run_dbscan(t, d, **{"min_samples": 3})
        assert clusters == []
        assert np.all(labels == NOISE)

    def test_min_samples_controls_density(self):
        t = np.zeros(3)
        d = np.array([1.0, 1.5, 2.0])
        _l1, c_loose = run_dbscan(t, d, min_samples=2)
        _l2, c_strict = run_dbscan(t, d, min_samples=10)
        assert len(c_loose) == 1
        assert c_strict == []

    def test_empty_input(self):
        labels, clusters = run_dbscan([], [])
        assert labels.size == 0 and clusters == []

    def test_mismatched_lengths_rejected(self):
        clusterer = SinglePulseDBSCAN()
        with pytest.raises(ValueError):
            clusterer.fit(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))

    def test_labels_cover_cluster_indices(self):
        rng = np.random.default_rng(1)
        t = rng.normal(1.0, 0.02, 40)
        d = rng.normal(5.0, 1.0, 40)
        labels, clusters = run_dbscan(t, d)
        for cluster in clusters:
            assert all(labels[i] == cluster.cluster_id for i in cluster.indices)

    def test_cluster_ids_dense_from_zero(self):
        rng = np.random.default_rng(2)
        t = np.concatenate([rng.normal(i * 10.0, 0.01, 20) for i in range(4)])
        d = np.concatenate([rng.normal(20.0, 0.5, 20) for _ in range(4)])
        _labels, clusters = run_dbscan(t, d)
        assert [c.cluster_id for c in clusters] == list(range(len(clusters)))


class TestHostileInput:
    """Coordinates and parameters the clusterer must refuse, not absorb."""

    @pytest.mark.parametrize("column", ["times", "dms", "snrs", "dm_steps"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_is_named(self, column, bad):
        """Was: a NaN time labelled noise under RuntimeWarnings, an infinite
        ``dm_steps`` a bare OverflowError."""
        cols = {c: np.arange(6.0) for c in ("times", "dms", "snrs", "dm_steps")}
        cols[column][[2, 4]] = bad
        with pytest.raises(ValueError) as err:
            SinglePulseDBSCAN().fit(**cols)
        assert str(err.value) == (
            f"{column} has 2 non-finite value(s); first at index 2"
        )

    def test_scaled_coordinate_overflow_is_named(self):
        with pytest.raises(ValueError, match=r"times / eps_time_s has 1 non-finite"):
            run_dbscan([0.0, 1e300], [1.0, 1.0], eps_time_s=1e-300)

    @pytest.mark.parametrize("kwargs", [
        {"eps_time_s": 0.0}, {"eps_time_s": -1.0}, {"eps_time_s": float("nan")},
        {"eps_dm_steps": 0.0}, {"eps_dm_steps": -4.0},
        {"min_samples": 0}, {"merge_gap_s": -0.1},
    ])
    def test_parameters_out_of_range_rejected(self, kwargs):
        """Was: eps 0 divided by zero into all-noise; eps -1 and
        min_samples 0 put everything in one cluster."""
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            SinglePulseDBSCAN(**kwargs)

    def test_far_apart_outliers_are_noise_without_overflow(self):
        """Two points 1e15 apart on both axes: the cell key must not wrap."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, clusters = run_dbscan(
                [0.0, 1e15], [1.0, 2.0], steps=[0.0, 1e15], min_samples=2
            )
            assert labels.tolist() == [NOISE, NOISE] and clusters == []
            # ... and a tight clump a long way from another is still found.
            t = np.concatenate([np.linspace(0.0, 0.05, 8), 1e15 + np.zeros(8)])
            labels, clusters = run_dbscan(t, np.ones(16), steps=np.round(t))
        assert labels.tolist() == [0] * 8 + [1] * 8


class TestArtifactMerging:
    def test_time_adjacent_overlapping_dm_clusters_merge(self):
        """Two halves of one pulse split by a small time gap must merge."""
        rng = np.random.default_rng(3)
        t1 = rng.normal(1.0, 0.02, 25)
        t2 = rng.normal(1.18, 0.02, 25)  # 0.18 s gap < merge_gap 0.2 s
        d = rng.normal(30.0, 0.8, 50)
        labels, clusters = run_dbscan(
            np.concatenate([t1, t2]), d, eps_time_s=0.05, merge_gap_s=0.2
        )
        assert len(clusters) == 1

    def test_distant_clusters_do_not_merge(self):
        rng = np.random.default_rng(4)
        t1 = rng.normal(1.0, 0.02, 25)
        t2 = rng.normal(5.0, 0.02, 25)
        d = rng.normal(30.0, 0.8, 50)
        _labels, clusters = run_dbscan(
            np.concatenate([t1, t2]), d, eps_time_s=0.05, merge_gap_s=0.2
        )
        assert len(clusters) == 2

    def test_dm_disjoint_clusters_do_not_merge(self):
        rng = np.random.default_rng(5)
        t = np.concatenate([rng.normal(1.0, 0.02, 25), rng.normal(1.1, 0.02, 25)])
        d = np.concatenate([rng.normal(10.0, 0.3, 25), rng.normal(80.0, 0.3, 25)])
        _labels, clusters = run_dbscan(t, d, eps_time_s=0.05, merge_gap_s=0.3)
        assert len(clusters) == 2


class TestClusterSummaries:
    def test_bounds_and_max_snr(self):
        rng = np.random.default_rng(6)
        t = rng.normal(2.0, 0.02, 30)
        d = rng.normal(40.0, 1.0, 30)
        s = rng.uniform(5, 20, 30)
        _labels, clusters = run_dbscan(t, d, snrs=s)
        c = clusters[0]
        member_snrs = s[c.indices]
        assert c.max_snr == pytest.approx(member_snrs.max())
        assert c.t_lo <= c.t_hi and c.dm_lo <= c.dm_hi

    def test_rank_orders_by_brightness(self):
        rng = np.random.default_rng(7)
        t = np.concatenate([rng.normal(1.0, 0.01, 20), rng.normal(8.0, 0.01, 20)])
        d = np.concatenate([rng.normal(20.0, 0.5, 20), rng.normal(20.0, 0.5, 20)])
        s = np.concatenate([np.full(20, 8.0), np.full(20, 20.0)])
        _labels, clusters = run_dbscan(t, d, snrs=s)
        brightest = max(clusters, key=lambda c: c.max_snr)
        assert brightest.rank == 1

    def test_csv_row_roundtrip_of_summary_fields(self):
        c = Cluster(3, [0, 1], 10.0, 12.0, 1.0, 2.0, 9.5, rank=2)
        parsed = Cluster.from_csv_row(c.to_csv_row())
        assert parsed.cluster_id == 3
        assert parsed.dm_lo == pytest.approx(10.0)
        assert parsed.max_snr == pytest.approx(9.5)

    def test_malformed_csv_rejected(self):
        with pytest.raises(ValueError):
            Cluster.from_csv_row("1,2,3")


# Coordinates on coarse lattices, so ties in time, DM and SNR are common.
_points = st.integers(1, 120).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 300), min_size=n, max_size=n),
    st.lists(st.integers(0, 60), min_size=n, max_size=n),
    st.lists(st.integers(0, 6), min_size=n, max_size=n),
))
_clusterers = st.builds(
    SinglePulseDBSCAN,
    eps_time_s=st.sampled_from([0.02, 0.05, 0.1]),
    eps_dm_steps=st.sampled_from([1.0, 2.5, 4.0]),
    min_samples=st.integers(1, 4),
    merge_gap_s=st.sampled_from([0.0, 0.05, 0.2, 1.0]),
)


@settings(max_examples=200, deadline=None)
@given(_points, _clusterers)
def test_merge_and_summaries_match_oracle(points, db):
    """Group bounds by ``reduceat`` ≡ the scatter-reduce and per-cluster
    reductions they replaced: merged labels, bounds, max SNR, members and
    ClusterRank (ties in brightness keep cluster-id order), bit for bit."""
    t_i, d_i, s_i = (np.asarray(v) for v in points)
    times, dms, snrs = t_i * 0.01, d_i * 0.5, 5.0 + s_i * 0.25
    labels = db._dbscan(times / db.eps_time_s, dms / db.eps_dm_steps)
    merged = db._merge_artifact_clusters(labels, times, dms)
    ref = _reference_merge_artifact_clusters(db, labels, times, dms)
    assert merged.dtype == ref.dtype and np.array_equal(merged, ref)
    assert repr(db._summarize(merged, times, dms, snrs)) == repr(
        _reference_summarize(ref, times, dms, snrs)
    )
