"""The columnar Search phase equals the record path, bit for bit.

``search_observation_columns`` runs Algorithm 1 and the features over
blocks of ragged rows padded with ``-0.0`` (at most one call per size class
of its clusters, and of its pulses); the oracle is ``run_rapid_on_cluster``
applied box by box.  Every ``PulseBatch`` column must agree in every bit, rows in cluster
order then range order.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.record_path import (
    extract_pulse_features,
    pulse_batch_from_records,
    run_rapid_on_cluster,
)

import repro.core.rapid as rapid
from repro.astro import GBT350DRIFT, generate_observation
from repro.astro.dispersion import DMGrid
from repro.astro.population import b1853_like
from repro.core.bins import SMALL_CLUSTER_CUTOFF, dynamic_bin_size
from repro.core.features import extract_segment_features
from repro.core.rapid import run_rapid_observation_batch, search_observation_columns
from repro.core.regression import bin_slopes
from repro.core.search import SearchParams, find_single_pulses, find_single_pulses_rows
from repro.dataplane import ClusterBatch, PulseBatch
from repro.io.spe_files import observation_cluster_batch

GRID = DMGrid(max_dm=1000.0, coarsen=10.0)
#: Both sides of every padding rule: n < 8 pads to 7, 8k <= n < 128 to
#: 8k + 7, and 128 on keep their own width.
CLASS_EDGES = (1, 2, 7, 8, 11, 12, 15, 16, 127, 128, 129)
#: Values that a padding cell must not disturb.
SPECIAL = (-0.0, 0.0, np.nan, np.inf, -np.inf)
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def boxes(dm_lo, dm_hi, t_lo, t_hi) -> ClusterBatch:
    """Cluster boxes with distinct ids/ranks and alternating truth tags."""
    k = len(dm_lo)
    ids = np.arange(k) + 100
    return ClusterBatch(
        np.full(k, "K", dtype=object), ids, np.arange(k, 0, -1), np.zeros(k),
        dm_lo, dm_hi, t_lo, t_hi, np.zeros(k),
        np.array([f"PSR{i}" if i % 2 else None for i in range(k)], dtype=object),
        ids % 3 == 0,
    )


def oracle(times, dms, snrs, clusters, grid, key="K", params=SearchParams()) -> PulseBatch:
    """``run_rapid_on_cluster`` over each box's four-way mask, in box order."""
    pulses = []
    for i in range(len(clusters)):
        mask = (
            (dms >= clusters.dm_lo[i]) & (dms <= clusters.dm_hi[i])
            & (times >= clusters.t_lo[i]) & (times <= clusters.t_hi[i])
        )
        pulses.extend(run_rapid_on_cluster(
            times[mask], dms[mask], snrs[mask],
            cluster_rank=int(clusters.rank[i]),
            dm_spacing_of=grid.spacing_at if grid is not None else (lambda _dm: 1.0),
            observation_key=key, cluster_id=int(clusters.cluster_id[i]),
            params=params, source_name=clusters.source[i],
            is_rrat=bool(clusters.is_rrat[i]),
        ))
    return pulse_batch_from_records(pulses)


def assert_identical(got: PulseBatch, want: PulseBatch) -> None:
    """Column by column; numeric columns by their bytes (-0.0 != 0.0, NaN == NaN)."""
    assert len(got) == len(want)
    for name in PulseBatch.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if a.dtype == object:
            assert a.tolist() == b.tolist(), name
        else:
            assert a.tobytes() == b.tobytes(), name


def check(times, dms, snrs, clusters, grid=GRID, params=SearchParams()) -> PulseBatch:
    got = search_observation_columns(times, dms, snrs, clusters, grid, "K", params)
    assert_identical(got, oracle(times, dms, snrs, clusters, grid, "K", params))
    return got


def profile(n: int, rng, peaks=(0.5,), height=9.0) -> np.ndarray:
    """An SNR-vs-position profile of ``n`` points with triangular peaks."""
    x = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(n)
    snr = 5.0 + rng.uniform(0.0, 0.3, n)
    for centre in peaks:
        snr += height * np.clip(1.0 - np.abs(x - centre) / 0.12, 0.0, None)
    return snr


def observation_of(sizes, rng, peaks=(0.5,), dm_step=0.7):
    """One cluster of each given size, each alone in its own time window."""
    times, dms, snrs = [], [], []
    for i, n in enumerate(sizes):
        times.append(10.0 * i + rng.uniform(0.0, 5.0, n))
        dms.append(20.0 + dm_step * np.arange(n))
        snrs.append(profile(n, rng, peaks))
    k = len(sizes)
    t_lo = 10.0 * np.arange(k)
    clusters = boxes(np.full(k, 0.0), np.full(k, 1e6), t_lo, t_lo + 5.0)
    shuffle = rng.permutation(sum(sizes))
    return (np.concatenate(times)[shuffle], np.concatenate(dms)[shuffle],
            np.concatenate(snrs)[shuffle], clusters)


class TestEqualsRecordPath:
    @SETTINGS
    @given(data=st.data())
    def test_random_boxes_over_a_coarse_lattice(self, data):
        """Overlapping and nested boxes; repeated DMs and (DM, time) pairs."""
        m = data.draw(st.integers(0, 120), label="n_spes")
        k = data.draw(st.integers(0, 12), label="n_boxes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # A handful of distinct DMs and times, so ties are the rule.
        dms = rng.integers(0, 9, m) * 2.5
        times = rng.integers(0, 6, m) * 0.5
        snrs = np.round(5.0 + rng.exponential(3.0, m), data.draw(st.integers(0, 3)))
        dm_a, dm_b = rng.integers(-1, 10, (2, k)) * 2.5
        t_a, t_b = rng.integers(-1, 7, (2, k)) * 0.5
        clusters = boxes(np.minimum(dm_a, dm_b), np.maximum(dm_a, dm_b),
                         np.minimum(t_a, t_b), np.maximum(t_a, t_b))
        grid = GRID if data.draw(st.booleans(), label="with_grid") else None
        params = SearchParams(
            weight=data.draw(st.sampled_from([0.75, 1.25])),
            slope_threshold=data.draw(st.sampled_from([0.0, 0.05, 0.5])),
        )
        check(times, dms, snrs, clusters, grid, params)

    @SETTINGS
    @given(
        sizes=st.lists(st.integers(0, 40), min_size=1, max_size=25),
        n_peaks=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_clusters_of_drawn_sizes(self, sizes, n_peaks, seed):
        rng = np.random.default_rng(seed)
        peaks = tuple((i + 0.5) / max(n_peaks, 1) for i in range(n_peaks))
        check(*observation_of(sizes, rng, peaks))

    def test_empty_single_and_pair_clusters(self):
        rng = np.random.default_rng(1)
        got = check(*observation_of([0, 1, 2, 0, 2, 1, 30], rng))
        assert set(got.cluster_id.tolist()) == {106}

    def test_sizes_straddling_the_small_cluster_cutoff(self):
        """binsize is 1 below 12 members and floor(w sqrt(n)) from 12 on."""
        cut = SMALL_CLUSTER_CUTOFF
        sizes = [cut - 1, cut, cut + 1] * 3
        assert dynamic_bin_size(cut - 1) != dynamic_bin_size(cut + 4)
        got = check(*observation_of(sizes, np.random.default_rng(2)))
        assert len(got)

    def test_one_large_cluster_among_many_tiny_ones(self):
        rng = np.random.default_rng(3)
        sizes = [3, 4, 5, 4, 3] * 8 + [5000] + [2, 6, 4] * 5
        got = check(*observation_of(sizes, rng, peaks=(0.2, 0.5, 0.8), dm_step=0.01))
        assert 100 + sizes.index(5000) in got.cluster_id.tolist()

    def test_all_flat_profiles_yield_nothing(self):
        times, dms, _snrs, clusters = observation_of([5, 12, 30, 7], np.random.default_rng(4))
        got = check(times, dms, np.full(dms.size, 6.0), clusters)
        assert len(got) == 0

    def test_equal_peak_snrs_rank_stably(self):
        """Two peaks of exactly equal MaxSNR: the earlier range ranks first."""
        n = 40
        x = np.arange(n, dtype=float)
        snr = 5.0 + 8.0 * (np.exp(-0.5 * ((x - 10) / 2.0) ** 2)
                           + np.exp(-0.5 * ((x - 30) / 2.0) ** 2))
        snr[30] = snr[10]
        clusters = boxes([0.0, 0.0], [1e3, 1e3], [0.0, 10.0], [5.0, 15.0])
        times = np.concatenate([np.full(n, 1.0), np.full(n, 11.0)])
        got = check(times, np.tile(20.0 + x, 2), np.tile(snr, 2), clusters)
        ranks = got.feature("PulseRank").reshape(2, -1)
        assert got.feature("MaxSNR")[0] == got.feature("MaxSNR")[1]
        assert ranks.tolist() == [[1.0, 2.0], [1.0, 2.0]]

    def test_no_clusters_and_no_spes(self):
        rng = np.random.default_rng(5)
        times, dms, snrs, clusters = observation_of([8, 20], rng)
        none = np.empty(0)
        assert len(check(times, dms, snrs, ClusterBatch.empty())) == 0
        assert len(check(none, none, none, clusters)) == 0
        assert len(check(none, none, none, ClusterBatch.empty())) == 0

    def test_generated_observation(self, observation):
        clusters = observation_cluster_batch(observation)
        batch = observation.spe_batch
        got = check(batch.time_s, batch.dm, batch.snr, clusters, observation.grid)
        assert len(got)


def size_class(n: int) -> int:
    """The padding rule, written out independently of ``src/``."""
    return n | 7 if n < 128 else n


def hostile_profile(n: int, rng, data) -> tuple[np.ndarray, np.ndarray]:
    """DMs with ties (or one constant DM), SNRs with ties, special values or
    one constant value — whatever hypothesis picks for this cluster."""
    repeat = data.draw(st.integers(1, 3), label="dm_repeat")
    step = data.draw(st.sampled_from([0.0, 0.01, 0.7]), label="dm_step")
    dms = 20.0 + step * (np.arange(n) // repeat)
    snrs = profile(n, rng, peaks=(0.3, 0.7))
    if data.draw(st.booleans(), label="constant_snr"):
        snrs[:] = 6.0
    snrs = np.round(snrs, data.draw(st.integers(0, 3), label="snr_decimals"))
    k = data.draw(st.integers(0, min(n, 3)), label="n_special")
    snrs[rng.choice(n, k, replace=False)] = [
        data.draw(st.sampled_from(SPECIAL), label="special") for _ in range(k)
    ]
    return dms, snrs


class TestClassEdges:
    """Rows on both sides of every size-class edge, fused with rows of other
    sizes into one padded block, equal their unpadded per-row oracle."""

    @SETTINGS
    @given(data=st.data())
    def test_search_over_clusters_at_every_class_edge(self, data):
        extra = data.draw(st.lists(st.integers(0, 40), max_size=6), label="extra")
        sizes = list(data.draw(st.permutations(CLASS_EDGES + tuple(extra)), label="sizes"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        times, dms, snrs = [], [], []
        for i, n in enumerate(sizes):
            d, s = hostile_profile(n, rng, data)
            dms.append(d)
            snrs.append(s)
            times.append(10.0 * i + np.round(rng.uniform(0.0, 5.0, n), 1))
        k = len(sizes)
        t_lo = 10.0 * np.arange(k)
        clusters = boxes(np.full(k, 0.0), np.full(k, 1e6), t_lo, t_lo + 5.0)
        shuffle = rng.permutation(sum(sizes))
        with np.errstate(invalid="ignore", over="ignore"):
            check(np.concatenate(times)[shuffle], np.concatenate(dms)[shuffle],
                  np.concatenate(snrs)[shuffle], clusters)

    @SETTINGS
    @given(data=st.data())
    def test_features_over_pulses_at_every_class_edge(self, data):
        extra = data.draw(st.lists(st.integers(1, 40), max_size=6), label="extra")
        lengths = data.draw(st.permutations(CLASS_EDGES + tuple(extra)), label="lengths")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        segments = [hostile_profile(n, rng, data) for n in lengths]
        dms = np.concatenate([d for d, _s in segments])
        snrs = np.concatenate([s for _d, s in segments])
        times = np.round(rng.uniform(0.0, 5.0, dms.size), 1)
        stops = np.cumsum(lengths)
        starts = stops - lengths
        # Bin sizes mix inside a class (width 15 holds n = 8–11 at bin size 1
        # and n = 12–15 at 2); hints land anywhere in or past the segment.
        binsizes = [data.draw(st.integers(1, 12), label="binsize") for _ in lengths]
        hints = starts + [data.draw(st.integers(0, n), label="hint") for n in lengths]
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            got = extract_segment_features(dms, snrs, times, starts, stops, hints, binsizes)
            for i, (a, b) in enumerate(zip(starts.tolist(), stops.tolist())):
                want = extract_pulse_features(
                    dms[a:b], snrs[a:b], times[a:b], peak_hint=hints[i] - a,
                    binsize=binsizes[i], cluster_rank=0, pulse_rank=0,
                    n_peaks_in_cluster=0, dm_spacing=0.0,
                    cluster_start_time=0.0, cluster_stop_time=0.0,
                ).to_vector()
                assert got[i].tobytes() == want.tobytes(), (lengths[i], binsizes[i])
        assert {size_class(n) for n in CLASS_EDGES} <= {size_class(n) for n in lengths}


class TestRowWiseSearchValidates:
    """The row-wise search refuses what ``find_single_pulses`` refuses."""

    def test_unsorted_rows_raise(self):
        dms = np.array([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0]])
        snrs = np.ones_like(dms)
        with pytest.raises(ValueError, match="sorted ascending") as one_d:
            find_single_pulses(dms[1], snrs[1])
        with pytest.raises(ValueError, match="sorted ascending") as rows:
            find_single_pulses_rows(dms, snrs)
        assert str(rows.value) == str(one_d.value)

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="equal length") as one_d:
            find_single_pulses(np.arange(4.0), np.arange(3.0))
        with pytest.raises(ValueError, match="equal length") as rows:
            find_single_pulses_rows(np.zeros((2, 4)), np.zeros((2, 3)))
        assert str(rows.value) == str(one_d.value)

    def test_rows_equal_their_one_d_calls(self):
        rng = np.random.default_rng(6)
        dms = np.sort(rng.uniform(0.0, 50.0, (7, 30)), axis=1)
        snrs = 5.0 + rng.exponential(3.0, (7, 30))
        spans, (starts, stops) = find_single_pulses_rows(dms, snrs)
        for row in range(7):
            want, want_edges = find_single_pulses(dms[row], snrs[row])
            assert spans[row] == want
            assert list(zip(starts[row].tolist(), stops[row].tolist())) == want_edges


class TestMembershipIsBlocked:
    def test_block_size_does_not_change_the_output(self, monkeypatch):
        rng = np.random.default_rng(7)
        times, dms, snrs, clusters = observation_of([4, 15, 3, 40, 9, 2, 13], rng)
        want = search_observation_columns(times, dms, snrs, clusters, GRID, "K")
        assert len(want)
        for cells in (1, 3 * dms.size, 10**12):
            monkeypatch.setattr(rapid, "_CANDIDATES", cells)
            assert_identical(
                search_observation_columns(times, dms, snrs, clusters, GRID, "K"), want
            )

    def test_peak_memory_is_bounded_on_a_large_observation(self):
        """200 k SPEs × 2 k boxes is 4e8 cells: one boolean mask would be
        400 MB.  Sorted, with candidates taken a budget at a time, the whole
        search stays under 16 MB."""
        rng = np.random.default_rng(8)
        m, k = 200_000, 2_000
        times = rng.uniform(0.0, 4000.0, m)
        dms = rng.uniform(0.0, 500.0, m)
        snrs = 5.0 + rng.exponential(2.0, m)
        t_lo = rng.uniform(0.0, 3990.0, k)
        dm_lo = rng.uniform(0.0, 480.0, k)
        clusters = boxes(dm_lo, dm_lo + 20.0, t_lo, t_lo + rng.uniform(0.5, 10.0, k))

        tracemalloc.start()
        try:
            got = search_observation_columns(times, dms, snrs, clusters, GRID, "K")
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cap = 16 * 2**20
        assert peak < cap, f"peak {peak / 2**20:.1f} MB"
        assert m * k > 20 * cap  # bytes of one unblocked boolean block
        assert_identical(got, oracle(times, dms, snrs, clusters, GRID))


class TestNoPerClusterCalls:
    def test_bin_slopes_calls_bounded_by_size_classes(self, monkeypatch):
        """At most one ``bin_slopes`` per size class on each side: one per
        class of the searched cluster sizes, one per class of the pulse
        lengths (sizes of 128 or more are classes of their own).  A call per
        cluster, per cluster size or per (length, binsize) breaks this."""
        obs = generate_observation(
            GBT350DRIFT, [b1853_like()], seed=11, n_noise_clusters=40,
            n_rfi_bursts=2, obs_length_s=60.0,
        )
        calls = Counter()

        def counted(side):
            def call(*args, **kwargs):
                calls[side] += 1
                return bin_slopes(*args, **kwargs)
            return call

        monkeypatch.setattr("repro.core.search.bin_slopes", counted("search"))
        monkeypatch.setattr("repro.core.features.bin_slopes", counted("features"))
        result = run_rapid_observation_batch(obs)

        batch, clusters = obs.spe_batch, observation_cluster_batch(obs)
        cluster_of, _spe = rapid._box_members(
            batch.time_s, batch.dm, np.zeros(len(batch), dtype=np.int64),
            clusters, np.zeros(len(clusters), dtype=np.int64),
        )
        sizes = np.bincount(cluster_of, minlength=len(clusters))
        searched = sizes[sizes >= 2].tolist()
        size_of = dict(zip(clusters.cluster_id.tolist(), sizes.tolist()))
        pulses = result.pulse_batch
        lengths = (pulses.spe_stop - pulses.spe_start).tolist()
        shapes = {
            (n, dynamic_bin_size(size_of[cid]))
            for cid, n in zip(pulses.cluster_id.tolist(), lengths)
        }
        size_classes = {size_class(n) for n in searched}
        length_classes = {size_class(n) for n in lengths}
        # The input separates the bounds: per-size or per-shape calls exceed them.
        assert len(set(searched)) > len(size_classes) and len(shapes) > len(length_classes)
        assert 0 < calls["search"] <= len(size_classes)
        assert 0 < calls["features"] <= len(length_classes)
