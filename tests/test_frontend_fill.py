"""The channel-major fill, held to the row-at-a-time loop it replaced.

``_shift_add`` sums a block of rows channel-major, and
``DedispersionPlan.fill`` serves groups of one, stage 1 (a batch of shared
groups under ``_PARTIAL_BYTES``) and stage 2 through it.  Every row must be
the bits of the row-at-a-time loop (``oracles.frontend._reference_shift_sum``
/ ``_reference_fill``): whatever the batch of groups, and wherever a chunk
edge cuts it.
"""

from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.frontend import _reference_fill, _reference_shift_sum

from repro.astro import kernels
from repro.astro.kernels import plan_dedispersion

LAW = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
DTYPES = [np.float32, np.float64]


class TestShiftAddEqualsTheRowLoop:
    @LAW
    @given(
        n_rows=st.integers(1, 3 * kernels._BLOCK_ROWS + 1),
        n_series=st.integers(1, 12),
        n=st.integers(1, 60),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 2**31),
    )
    def test_every_row_is_the_row_loops_bits(self, n_rows, n_series, n, dtype, seed):
        """Rows scattered through a dirty buffer, shifts of 0, inside the
        row and at or past its end."""
        rng = np.random.default_rng(seed)
        series = list(rng.normal(0.0, 1.0, (n_series, n)).astype(dtype) * 10.0 ** rng.uniform(-3, 3))
        shifts = rng.integers(0, n + 3, (n_rows, n_series)).tolist()
        where = rng.permutation(n_rows + 2)[:n_rows]
        got = np.full((n_rows + 2, n), np.nan, dtype=dtype)
        kernels._shift_add([got[i] for i in where], series, shifts)
        for i, row_shifts in zip(where, shifts):
            want = np.full(n, np.nan, dtype=dtype)
            _reference_shift_sum(want, series, row_shifts)
            assert got[i].tobytes() == want.tobytes()


#: Ladder steps: every row a group of one (coarse), shared groups (fine),
#: and a mix of both (a fine ladder spread by a coarse jump).
STEPS = {"coarse": 2.0, "fine": 0.02, "mixed": None}


def _plan(n_chan, n, dms, dtype, seed, descending=False):
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 1.0, (n_chan, n))
    freqs = np.linspace(300.0, 400.0, n_chan)
    if descending:
        freqs = freqs[::-1].copy()
    return plan_dedispersion(data, freqs, 400.0, 1e-3, dms, dtype)


def _ladder(kind, n_dms, rng):
    if kind == "mixed":
        fine = 1.0 + 0.02 * np.arange(n_dms)
        return np.where(rng.random(n_dms) < 0.3, fine + 3.0 * np.arange(n_dms), fine)
    return 1.0 + STEPS[kind] * np.arange(n_dms)


def _group_bytes(plan):
    return len(plan.edges) * max(1, plan.n_samples) * plan.dtype.itemsize


class TestFillEqualsTheRowAtATimeFill:
    @LAW
    @given(
        kind=st.sampled_from(sorted(STEPS)),
        n_chan=st.sampled_from([1, 4, 13, 16]),
        n=st.integers(1, 300),
        n_dms=st.integers(1, 60),
        dtype=st.sampled_from(DTYPES),
        batch=st.sampled_from([1, 2, 3, None]),
        shuffle=st.booleans(),
        cuts=st.lists(st.integers(1, 59), max_size=4),
        seed=st.integers(0, 2**31),
    )
    def test_any_chunking_and_any_batch_of_groups(
        self, kind, n_chan, n, n_dms, dtype, batch, shuffle, cuts, seed
    ):
        """The plan filled in chunks cut anywhere, with stage 1 summing
        ``batch`` groups at a time (``None``: the module's bound), equals
        the row-at-a-time fill of the same chunks and the whole block."""
        rng = np.random.default_rng(seed)
        dms = _ladder(kind, n_dms, rng)
        if shuffle:
            dms = rng.permutation(dms)
        plan = _plan(n_chan, n, dms, dtype, seed)
        limit = kernels._PARTIAL_BYTES if batch is None else batch * _group_bytes(plan)
        edges = [0, *sorted({c for c in cuts if c < n_dms}), n_dms]
        want = np.concatenate([
            _reference_fill(plan, lo, np.full((hi - lo, n), np.nan, dtype))
            for lo, hi in zip(edges, edges[1:])
        ])
        with mock.patch.object(kernels, "_PARTIAL_BYTES", limit):
            got = np.concatenate([
                plan.fill(lo, np.full((hi - lo, n), np.nan, dtype))
                for lo, hi in zip(edges, edges[1:])
            ])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert plan.block().tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_chunk_edge_cuts_a_batch_of_shared_groups(self, dtype):
        """Two groups per stage-1 batch, and chunks of ``_BLOCK_ROWS`` rows
        whose edges fall inside groups of such a batch: each chunk
        recomputes the partials of the groups it holds, identically."""
        dms = 1.0 + 0.02 * np.arange(90)
        plan = _plan(16, 400, dms, dtype, seed=7)
        groups = np.asarray(plan.group_of)
        rows = kernels._BLOCK_ROWS
        cut = np.arange(rows, dms.size, rows)
        assert groups.max() >= 3 and (groups >= 0).all()
        assert (groups[cut - 1] == groups[cut]).any()  # an edge splits a group
        want = _reference_fill(plan, 0, np.empty((dms.size, 400), dtype))
        with mock.patch.object(kernels, "_PARTIAL_BYTES", 2 * _group_bytes(plan)):
            for lo in range(0, dms.size, rows):
                out = np.full((min(rows, dms.size - lo), 400), np.nan, dtype)
                assert plan.fill(lo, out).tobytes() == want[lo : lo + rows].tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_groups_of_one_down_the_band(self, dtype):
        """Channels from the top of the band down: every row a group of
        one, summed from the channels at its exact shifts."""
        dms = 1.0 + 0.02 * np.arange(30)
        plan = _plan(16, 200, dms, dtype, seed=3, descending=True)
        assert plan.solo_rows == plan.n_rows
        want = _reference_fill(plan, 0, np.empty((30, 200), dtype))
        assert plan.block().tobytes() == want.tobytes()

    def test_stage_one_partials_stay_under_the_bound(self):
        """The fill allocates one partial buffer of at most
        ``_PARTIAL_BYTES`` (one group's when a group alone is larger)."""
        dms = 1.0 + 0.02 * np.arange(120)
        plan = _plan(16, 2000, dms, np.float32, seed=5)
        assert len(set(plan.group_of.tolist())) > 4
        shapes = []
        empty = np.empty

        def recorded(shape, *args, **kwargs):
            shapes.append(shape)
            return empty(shape, *args, **kwargs)

        with mock.patch.object(kernels.np, "empty", recorded):
            plan.fill(0, empty((120, 2000), np.float32))
        (partial,) = [s for s in shapes if len(s) == 3]
        assert 1 < partial[0] and np.prod(partial) * 4 <= kernels._PARTIAL_BYTES
