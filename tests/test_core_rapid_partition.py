"""Box membership by sort, and one search over many observations.

Two laws hold the Search phase's columnar shortcuts to what they replace:

- membership: ``core.rapid._box_members`` (SPEs sorted by observation and
  time, each box's window a ``searchsorted`` run, the run filtered by DM)
  returns the row-major ``(cluster, SPE index)`` pairs of the dense
  (clusters × SPEs) mask, ``tests/oracles/record_path.py``'s
  ``_reference_box_members``, bit for bit — ties at every box edge,
  duplicate ``(dm, time)`` pairs, ``±0.0``, ``±inf`` and NaN in the SPE
  columns and in the bounds, empty boxes, whole-observation boxes, and
  every candidate budget from 1 up;
- partition: ``search_columns`` over several observations, and D-RAPID's
  per-partition body ``drapid._search_partition``, equal the ``concat`` of
  one ``search_observation_columns`` call per observation, bit for bit and
  row for row.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.record_path import _reference_box_members

import repro.core.rapid as rapid
from repro.astro.dispersion import DMGrid
from repro.core.drapid import _search_partition
from repro.core.rapid import search_columns, search_observation_columns
from repro.dataplane import ClusterBatch, PulseBatch, SPEBatch

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
#: Coordinates and bounds drawn from one small set, so that SPEs sit on box
#: edges, repeat each other and meet every special value.
VALUES = (-np.inf, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, np.inf, np.nan)
values = st.sampled_from(VALUES)


def boxes(dm_lo, dm_hi, t_lo, t_hi, key="K", first_id=100) -> ClusterBatch:
    k = len(dm_lo)
    ids = np.arange(k) + first_id
    return ClusterBatch(
        np.full(k, key, dtype=object), ids, np.arange(k, 0, -1), np.zeros(k),
        dm_lo, dm_hi, t_lo, t_hi, np.zeros(k),
        np.array([f"PSR{i}" if i % 2 else None for i in range(k)], dtype=object),
        ids % 3 == 0,
    )


def assert_same_pairs(got, want) -> None:
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


def members_at_every_budget(times, dms, spe_obs, clusters, box_obs, budgets):
    want = _reference_box_members(times, dms, spe_obs, clusters, box_obs)
    for budget in budgets:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rapid, "_CANDIDATES", budget)
            assert_same_pairs(rapid._box_members(times, dms, spe_obs, clusters, box_obs), want)
    return want


@st.composite
def membership_inputs(draw):
    n_obs = draw(st.integers(1, 3))
    spes = draw(st.lists(st.tuples(values, values, st.integers(0, n_obs - 1)), max_size=40))
    bounds = draw(st.lists(
        st.tuples(values, values, values, values, st.integers(0, n_obs - 1)), max_size=12
    ))
    times, dms, spe_obs = (np.array(c, dtype=t) for c, t in zip(
        zip(*spes) if spes else ((), (), ()), (float, float, np.int64)))
    dm_lo, dm_hi, t_lo, t_hi, box_obs = (np.array(c, dtype=t) for c, t in zip(
        zip(*bounds) if bounds else ((),) * 5, (float,) * 4 + (np.int64,)))
    budget = draw(st.one_of(st.integers(1, 8), st.just(10**12)))
    return times, dms, spe_obs, boxes(dm_lo, dm_hi, t_lo, t_hi), box_obs, budget


class TestMembershipLaw:
    @SETTINGS
    @given(membership_inputs())
    def test_sort_equals_the_dense_mask(self, case):
        times, dms, spe_obs, clusters, box_obs, budget = case
        members_at_every_budget(times, dms, spe_obs, clusters, box_obs, [budget])

    def test_ties_at_all_four_edges_and_duplicates(self):
        # A 4 x 4 lattice with every point twice: boxes' edges fall on it.
        t, d = np.meshgrid(np.arange(4.0), np.arange(4.0))
        times, dms = np.tile(t.ravel(), 2), np.tile(d.ravel(), 2)
        zero = np.zeros(times.size, dtype=np.int64)
        clusters = boxes(np.array([1.0, 0.0, 3.0]), np.array([2.0, 3.0, 3.0]),
                         np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 3.0]))
        cluster_of, spe = members_at_every_budget(
            times, dms, zero, clusters, np.zeros(3, np.int64), range(1, 40))
        assert np.bincount(cluster_of).tolist() == [8, 8, 8]
        assert spe.tolist()[:8] == [5, 6, 9, 10, 21, 22, 25, 26]

    def test_signed_zeros_infinities_and_nans(self):
        times = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.0, 0.0, np.nan])
        dms = np.array([0.0, -0.0, 1.0, 1.0, 1.0, np.nan, np.inf, np.nan])
        zero = np.zeros(times.size, dtype=np.int64)
        inf, nan = np.inf, np.nan
        clusters = boxes(
            np.array([-0.0, -inf, -inf, nan, -inf, 0.0, -inf]),
            np.array([0.0, inf, inf, inf, nan, inf, inf]),
            np.array([0.0, -inf, inf, -inf, -inf, nan, -inf]),
            np.array([-0.0, inf, inf, inf, inf, inf, nan]),
        )
        cluster_of, spe = members_at_every_budget(
            times, dms, zero, clusters, np.zeros(7, np.int64), range(1, 20))
        # NaN coordinates are in no box, a NaN bound selects nothing.
        assert {4, 5, 7}.isdisjoint(spe.tolist())
        assert set(cluster_of.tolist()) == {0, 1, 2}

    def test_empty_boxes_and_a_box_over_the_whole_observation(self):
        rng = np.random.default_rng(5)
        times, dms = rng.uniform(0.0, 50.0, 300), rng.uniform(0.0, 30.0, 300)
        clusters = boxes(np.array([10.0, 0.0, 5.0, -np.inf]), np.array([5.0, 30.0, 5.0, np.inf]),
                         np.array([0.0, 20.0, 7.0, -np.inf]), np.array([50.0, 10.0, 7.0, np.inf]))
        cluster_of, spe = members_at_every_budget(
            times, dms, np.zeros(300, np.int64), clusters, np.zeros(4, np.int64),
            [1, 2, 3, 299, 300, 301, 10**12])
        assert cluster_of.tolist() == [3] * 300 and spe.tolist() == list(range(300))

    def test_every_candidate_budget(self):
        """Budgets 1, 2, ... past the number of candidates give the same pairs."""
        rng = np.random.default_rng(9)
        times = np.round(rng.uniform(0.0, 20.0, 150), 1)
        dms = np.round(rng.uniform(0.0, 10.0, 150), 1)
        spe_obs = rng.integers(0, 3, 150)
        t_lo, dm_lo = np.round(rng.uniform(0.0, 18.0, 25), 1), np.round(rng.uniform(0.0, 8.0, 25), 1)
        clusters = boxes(dm_lo, dm_lo + 2.0, t_lo, t_lo + rng.uniform(0.0, 6.0, 25))
        box_obs = rng.integers(0, 3, 25)
        in_window = sum(
            int(np.sum((times >= clusters.t_lo[b]) & (times <= clusters.t_hi[b])
                       & (spe_obs == box_obs[b])))
            for b in range(25)
        )
        cluster_of, _spe = members_at_every_budget(
            times, dms, spe_obs, clusters, box_obs, range(1, in_window + 2))
        assert 0 < cluster_of.size < in_window

    def test_other_observations_are_outside_every_box(self):
        """Two observations on the same (dm, time) lattice: each box sees its own."""
        times = np.tile(np.arange(5.0), 2)
        dms = np.ones(10)
        spe_obs = np.repeat([0, 1], 5)
        clusters = boxes(np.zeros(3), np.full(3, 2.0), np.zeros(3), np.full(3, 9.0))
        cluster_of, spe = members_at_every_budget(
            times, dms, spe_obs, clusters, np.array([1, 0, 2]), [1, 4, 10**12])
        assert cluster_of.tolist() == [0] * 5 + [1] * 5
        assert spe.tolist() == list(range(5, 10)) + list(range(5))


# ---------------------------------------------------------------------------
# The partition law
# ---------------------------------------------------------------------------
GRIDS = {"A": DMGrid(max_dm=1000.0, coarsen=10.0), "B": DMGrid(max_dm=600.0, coarsen=4.0)}


def observation(rng, n_spes, n_boxes, key):
    """SPEs on one shared (time, dm) range, so observations overlap."""
    times = np.round(rng.uniform(0.0, 30.0, n_spes), 2)
    dms = np.round(rng.uniform(0.0, 600.0, n_spes), 1)
    snrs = 5.0 + rng.exponential(3.0, n_spes)
    t_lo, dm_lo = rng.uniform(0.0, 25.0, n_boxes), rng.uniform(0.0, 450.0, n_boxes)
    clusters = boxes(dm_lo, dm_lo + rng.uniform(20.0, 150.0, n_boxes),
                     t_lo, t_lo + rng.uniform(0.5, 8.0, n_boxes), key,
                     first_id=int(rng.integers(0, 1000)))
    return SPEBatch(dms, snrs, times), clusters


def per_observation(observations, grids):
    return PulseBatch.concat([
        search_observation_columns(spes.time_s, spes.dm, spes.snr, clusters,
                                   grids.get(key.split("|", 1)[0]), key)
        for key, (spes, clusters) in observations if spes is not None
    ])


@st.composite
def partitions(draw):
    """1-5 observations of datasets A, B (unequal grids) and C (no grid);
    some empty of SPEs or of boxes, some with a null join."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for i in range(draw(st.integers(1, 5))):
        key = f"{draw(st.sampled_from('ABC'))}|5600{i}|J0000|{i}"
        spes, clusters = observation(
            rng, draw(st.sampled_from((0, 1, 40, 400))), draw(st.sampled_from((0, 1, 12, 60))), key)
        out.append((key, (None if draw(st.booleans()) and i % 2 else spes, clusters)))
    return out


class TestPartitionLaw:
    @SETTINGS
    @given(partitions())
    def test_drapid_partition_equals_the_concat_of_its_observations(self, observations):
        joined = [
            (key, ([clusters.slice(0, 3), clusters.slice(3, len(clusters))],
                   None if spes is None else [spes.slice(0, 7), spes.slice(7, len(spes))]))
            for key, (spes, clusters) in observations
        ]
        (pulses, n_clusters, n_null), = _search_partition(iter(joined), GRIDS, rapid.SearchParams())
        assert_identical(pulses, per_observation(observations, GRIDS))
        assert n_clusters == sum(len(c) for _k, (_s, c) in observations)
        assert n_null == sum(s is None for _k, (s, _c) in observations)

    @SETTINGS
    @given(partitions(), st.integers(0, 2**32 - 1))
    def test_interleaved_rows_equal_the_concat(self, observations, seed):
        """SPE rows of different observations interleaved (each observation's
        own order kept): the observation index alone separates them."""
        live = [(key, (s, c)) for key, (s, c) in observations if s is not None]
        if not live:
            return
        spes = [s for _k, (s, _c) in live]
        spe_obs = np.repeat(np.arange(len(live)), [len(s) for s in spes])
        # A random order of the observation labels; the k-th slot of
        # observation j takes that observation's k-th row.
        labels = np.random.default_rng(seed).permutation(spe_obs)
        rows = np.empty_like(labels)
        rows[np.argsort(labels, kind="stable")] = np.arange(labels.size)
        merged = SPEBatch.concat(spes).take(rows)
        clusters = [c for _k, (_s, c) in live]
        keys = [k for k, _v in live]
        got = search_columns(
            merged.time_s, merged.dm, merged.snr, labels,
            ClusterBatch.concat(clusters), np.repeat(np.arange(len(live)), [len(c) for c in clusters]),
            [GRIDS.get(k[0]) for k in keys], keys,
        )
        assert_identical(got, per_observation(live, GRIDS))

    def test_a_partition_of_null_joins_and_no_observations(self):
        rng = np.random.default_rng(2)
        _spes, clusters = observation(rng, 10, 4, "A|1|J|0")
        (pulses, n_clusters, n_null), = _search_partition(
            iter([("A|1|J|0", ([clusters], None))]), GRIDS, rapid.SearchParams())
        assert len(pulses) == 0 and (n_clusters, n_null) == (4, 1)
        (pulses, n_clusters, n_null), = _search_partition(iter([]), GRIDS, rapid.SearchParams())
        assert len(pulses) == 0 and (n_clusters, n_null) == (0, 0)

    def test_five_observations_find_pulses(self):
        """The law is not vacuous: a 5-observation partition finds pulses in
        each observation, and each dataset's own grid sets DMSpacing."""
        rng = np.random.default_rng(4)
        observations = [
            (key, observation(rng, 600, 40, key))
            for key in ("A|1|J|0", "B|1|J|1", "C|1|J|2", "A|2|J|3", "B|2|J|4")
        ]
        joined = [(k, ([c], [s])) for k, (s, c) in observations]
        (pulses, _n, _null), = _search_partition(iter(joined), GRIDS, rapid.SearchParams())
        assert_identical(pulses, per_observation(observations, GRIDS))
        assert set(pulses.observation_key.tolist()) == {k for k, _v in observations}
        spacing = pulses.feature("DMSpacing")
        dataset = np.array([k[0] for k in pulses.observation_key.tolist()])
        assert set(spacing[dataset == "C"].tolist()) == {1.0}
        assert (spacing[dataset == "A"] != 1.0).any() and (spacing[dataset == "B"] != 1.0).any()
