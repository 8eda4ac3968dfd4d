"""The streamed front end: ``single_pulse_search`` dedisperses and searches
the trial-DM grid a chunk of rows at a time, and what it emits is exactly
``single_pulse_block_search(dedisperse_all(...))`` on the whole block.

Each law runs once per shape the one dedispersion plan takes
(:data:`SHAPES`): shared subband groups on a fine ladder, every row a group
of one on a coarse ladder (the exact block of
``tests/oracles/frontend.py``), and every row a group of one because the
channels run down the band.

Also the checks every dedispersion call runs before summing a row: the
ladder (``delay_table``), the output dtype and the boxcar widths.
"""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.frontend import _reference_dedisperse_block

from repro.astro import filterbank, kernels
from repro.astro.filterbank import (
    Filterbank,
    InjectedPulse,
    dedisperse_all,
    single_pulse_search,
    synthesize_filterbank,
)
from repro.astro.kernels import (
    boxcar_snr,
    delay_table,
    plan_dedispersion,
    single_pulse_block_search,
)
from repro.astro.spe import spes_from_search

#: The plan's three shapes, by the DM step of their ladder: shared subband
#: groups (``subband``, a fine ladder); every row a group of one
#: (``direct``, a coarse ladder: the exact block); and every row a group of
#: one whatever the step (``descending``: channels from the top of the band
#: down).
SHAPES = {"direct": 2.0, "subband": 0.02, "descending": 0.02}


class _Descending(Filterbank):
    """A filterbank stored from the top of the band down: the same
    dynamic spectrum with its channel rows reversed."""

    @property
    def channel_freqs_mhz(self) -> np.ndarray:
        return super().channel_freqs_mhz[::-1].copy()


def _filterbank(n_chan=16, n_samples=2000, seed=1, pulse_dm=None, descending=False):
    pulses = (
        [InjectedPulse(0.4 * n_samples * 1e-3, pulse_dm, 4.0, 2.0)] if pulse_dm else []
    )
    fb = synthesize_filterbank(
        duration_s=n_samples * 1e-3, n_channels=n_chan, pulses=pulses, seed=seed
    )
    if descending:
        fb = _Descending(fb.data[::-1].copy(), fb.f_low_mhz, fb.f_high_mhz, fb.sample_time_s)
    return fb


def _shaped(shape, dm_lo=40.0, n_dms=40, **fb_args):
    """A filterbank and a ladder of ``n_dms`` trial DMs whose plan has
    ``shape`` (:data:`SHAPES`)."""
    fb = _filterbank(descending=shape == "descending", **fb_args)
    return fb, dm_lo + SHAPES[shape] * np.arange(n_dms)


def _plan(fb, dms, dtype=np.float32):
    return plan_dedispersion(
        fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s, dms, dtype,
    )


def _streamed(fb, dms, dtype, threshold, widths):
    """``single_pulse_search``'s SPEs, the arrays it handed to
    ``spes_from_search`` and the row counts of the blocks it searched."""
    seen, chunks = [], []

    def capture(*args):
        seen.append(args[2:])
        return spes_from_search(*args)

    def counted(block, *args):
        chunks.append(len(block))
        return single_pulse_block_search(block, *args)

    with mock.patch.object(filterbank, "spes_from_search", capture), \
            mock.patch.object(filterbank, "single_pulse_block_search", counted):
        spes = single_pulse_search(
            fb, dms, snr_threshold=threshold, boxcar_widths=widths, dtype=dtype,
        )
    (arrays,) = seen
    return spes, arrays, chunks


def _whole_block(fb, dms, dtype, threshold, widths):
    block = dedisperse_all(fb, dms, out_dtype=dtype)
    return single_pulse_block_search(block, threshold, widths)


def _same_arrays(got, want):
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestStreamedSearchEqualsWholeBlock:
    """The law: a stream of chunks emits the whole block's detections, bit
    for bit and dtype for dtype, on every shape of plan."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        descending=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
        blocks_per_chunk=st.integers(1, 3),
        full_chunks=st.integers(0, 3),
        extra_rows=st.sampled_from([-1, 0, 1, 5]),
        n_chan=st.integers(2, 20),
        n_samples=st.integers(16, 300),
        dm_lo=st.floats(0.0, 150.0),
        dm_step=st.sampled_from([0.01, 0.05, 0.2, 3.0]),
        shuffled=st.booleans(),
        threshold=st.floats(2.5, 6.0),
        seed=st.integers(0, 2**31),
    )
    def test_random_grids(
        self, descending, dtype, blocks_per_chunk, full_chunks, extra_rows, n_chan,
        n_samples, dm_lo, dm_step, shuffled, threshold, seed,
    ):
        """Ladders from empty to just past three chunks; fine steps (subband
        groups of many DMs, straddling chunk edges) and coarse ones (groups
        of one, summed exactly); channels up or down the band; sorted or
        shuffled; DMs up to a few hundred, whose low-channel shifts
        (≈ 20 samples per unit DM) pass the end of a 16–300-sample series.
        Where every row is a group of one, the whole block is the exact
        one."""
        rows = blocks_per_chunk * kernels._BLOCK_ROWS
        n_dms = max(0, full_chunks * rows + extra_rows)
        dms = dm_lo + dm_step * np.arange(n_dms)
        rng = np.random.default_rng(seed)
        if shuffled:
            dms = rng.permutation(dms)
        pulse_dm = float(dms[n_dms // 2]) if n_dms else None
        fb = _filterbank(n_chan, n_samples, int(rng.integers(0, 2**31)), pulse_dm, descending)
        widths = (1, 2, 4, 8, 16)
        chunk_bytes = rows * n_samples * np.dtype(dtype).itemsize
        plan = _plan(fb, dms, dtype)
        with mock.patch.object(kernels, "_CHUNK_BYTES", chunk_bytes):
            assert plan.chunk_rows == rows
            spes, got, chunks = _streamed(fb, dms, dtype, threshold, widths)
        want = _whole_block(fb, dms, dtype, threshold, widths)
        _same_arrays(got, want)
        assert spes == spes_from_search(dms, fb.sample_time_s, *want)
        assert len(chunks) == max(1, math.ceil(n_dms / rows))
        assert sum(chunks) == n_dms and max(chunks) <= rows
        if plan.solo_rows == plan.n_rows:
            exact = _reference_dedisperse_block(
                fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s, dms, dtype,
            )
            assert dedisperse_all(fb, dms, out_dtype=dtype).tobytes() == exact.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_subband_groups_straddle_chunk_edges(self, dtype):
        """A fine ladder whose subband groups are cut by chunk edges: each
        chunk recomputes the partial sums of the groups it needs."""
        fb = _filterbank(pulse_dm=41.0)
        dms = 40.0 + 0.02 * np.arange(100)
        plan = _plan(fb, dms, dtype)
        groups = np.asarray(plan.group_of)
        assert 1 < groups.max() + 1 < dms.size  # partial sums are reused
        rows = kernels._BLOCK_ROWS
        edges = np.arange(rows, dms.size, rows)
        assert ((groups[edges - 1] == groups[edges]) & (groups[edges] >= 0)).any()
        with mock.patch.object(kernels, "_CHUNK_BYTES", rows * fb.n_samples * 4):
            _spes, got, _chunks = _streamed(fb, dms, dtype, 4.0, (1, 2, 4, 8))
        want = _whole_block(fb, dms, dtype, 4.0, (1, 2, 4, 8))
        assert got[0].size > 0
        _same_arrays(got, want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fill_writes_any_row_range_as_the_block_has_it(self, shape):
        """Rows filled out of order into a dirty buffer equal the block's."""
        fb, dms = _shaped(shape, dm_lo=30.0, n_dms=50)
        plan = _plan(fb, np.random.default_rng(3).permutation(dms))
        assert (plan.solo_rows == plan.n_rows) == (shape != "subband")
        block = plan.block()
        for lo, hi in ((37, 50), (0, 1), (9, 30), (49, 50)):
            out = np.full((hi - lo, fb.n_samples), np.nan, dtype=np.float32)
            assert plan.fill(lo, out).tobytes() == block[lo:hi].tobytes()

    @pytest.mark.parametrize("shape", ["direct", "descending"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_ladder_of_singletons_searches_the_exact_block(self, shape, dtype):
        """Where no two trial DMs share a subband group, the streamed search
        emits what the search of the exact block emits, bit for bit."""
        fb, dms = _shaped(shape, pulse_dm=60.0)
        rows = kernels._BLOCK_ROWS
        with mock.patch.object(kernels, "_CHUNK_BYTES", rows * fb.n_samples * 4):
            _spes, got, chunks = _streamed(fb, dms, dtype, 4.0, (1, 2, 4, 8))
        assert len(chunks) > 1
        exact = _reference_dedisperse_block(
            fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s, dms, dtype,
        )
        want = single_pulse_block_search(exact, 4.0, (1, 2, 4, 8))
        assert got[0].size > 0
        _same_arrays(got, want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_an_empty_ladder_finds_nothing(self, shape):
        fb, dms = _shaped(shape, n_dms=0)
        spes, got, chunks = _streamed(fb, dms, np.float32, 5.0, (1, 2))
        assert spes == [] and chunks == [0]
        _same_arrays(got, _whole_block(fb, dms, np.float32, 5.0, (1, 2)))


class TestStreamGuards:
    """What the benchmark would catch late, caught without a clock."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_peak_memory_is_a_few_chunks_not_the_block(self, shape):
        """The search's traced peak stays below four chunks plus the
        filterbank; the block alone is over sixteen chunks."""
        fb, dms = _shaped(shape, dm_lo=30.0, n_dms=272, n_samples=16384, seed=3)
        chunk = 1 << 20
        block_bytes = dms.size * fb.n_samples * 4
        assert block_bytes >= 16 * chunk
        with mock.patch.object(kernels, "_CHUNK_BYTES", chunk):
            tracemalloc.start()
            try:
                single_pulse_search(fb, dms)
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 4 * chunk + fb.data.nbytes, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_shift_tables_are_computed_once_per_call_not_per_chunk(self, shape):
        """Channels up the band: the exact table (the groups of one, and
        stage 2's columns) and one per subband for stage 1, however few
        groups are shared; channels down the band: the exact table alone —
        however many chunks the search takes."""
        fb, dms = _shaped(shape, n_dms=200)
        calls = []
        shift_table = kernels.shift_table

        def counted(*args):
            calls.append(args)
            return shift_table(*args)

        rows = kernels._BLOCK_ROWS
        with mock.patch.object(kernels, "_CHUNK_BYTES", rows * fb.n_samples * 4), \
                mock.patch.object(kernels, "shift_table", counted):
            _spes, _got, chunks = _streamed(fb, dms, np.float32, 5.0, (1, 2, 4))
        assert len(chunks) == 25
        n_subbands = 4  # round(√16)
        assert len(calls) == (1 if shape == "descending" else n_subbands + 1)

    def test_one_span_pair_per_chunk_carrying_rows_and_bytes(self, tmp_path):
        from repro.obs import ObsConfig, ObsSession, build_report
        from repro.obs.events import KERNEL_SELECTED, read_events

        log = tmp_path / "trace.jsonl"
        session = ObsSession.from_config(ObsConfig(enabled=True, event_log_path=str(log)))
        fb = _filterbank()
        dms = 40.0 + 0.5 * np.arange(21)
        rows = kernels._BLOCK_ROWS
        with mock.patch.object(kernels, "_CHUNK_BYTES", rows * fb.n_samples * 4):
            single_pulse_search(fb, dms, obs=session)
        session.flush()
        events = read_events(log)
        assert len([e for e in events if e["type"] == KERNEL_SELECTED]) == 1
        starts = [e for e in events if e["type"] == "span_start"]
        for name in ("kernel.dedisperse", "kernel.boxcar"):
            spans = [e for e in starts if e["name"] == name]
            assert [e["rows"] for e in spans] == [8, 8, 5]
            assert [e["bytes"] for e in spans] == [r * fb.n_samples * 4 for r in (8, 8, 5)]
            assert not any("method" in e for e in spans)
        stages = {s["stage"]: s["count"] for s in build_report(str(log))["kernels"]["stages"]}
        assert stages == {"kernel.dedisperse": 3, "kernel.boxcar": 3}


class TestLadderIsCheckedOnce:
    """``delay_table`` is the one home of the ladder check; every call
    reaches it before a row is summed."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_bad_dm_is_named_with_its_index(self, shape, bad):
        """NaN/inf used to raise "negative shift: f_ref_mhz must be the top
        of the band" after an invalid-cast ``RuntimeWarning``."""
        fb, dms = _shaped(shape)
        dms[7] = bad
        match = rf"trial DMs must be finite and non-negative, got {re.escape(repr(bad))} at index 7"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                single_pulse_search(fb, dms)
            with pytest.raises(ValueError, match=match):
                dedisperse_all(fb, dms)
            with pytest.raises(ValueError, match=match):
                delay_table(fb.channel_freqs_mhz, fb.f_high_mhz, dms)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_two_dimensional_ladder_is_refused(self, shape):
        """It used to fail with a raw broadcast error."""
        fb, dms = _shaped(shape)
        dms = dms.reshape(4, 10)
        with pytest.raises(ValueError, match=r"1-D ladder, got shape \(4, 10\)"):
            single_pulse_search(fb, dms)
        with pytest.raises(ValueError, match="1-D ladder"):
            dedisperse_all(fb, dms)

    def test_a_scalar_dm_is_a_one_row_ladder(self):
        fb = _filterbank()
        one = dedisperse_all(fb, 42.0)
        assert one.shape == (1, fb.n_samples)
        assert one.tobytes() == dedisperse_all(fb, [42.0]).tobytes()


class TestSearchSettingsFailEarly:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
    def test_a_non_float_dtype_is_refused_by_name(self, dtype):
        """``dtype=np.int32`` used to dedisperse the whole grid and then die
        in ``out *= …`` with a raw ``UFuncTypeError``."""
        fb = _filterbank()
        dms = 40.0 + 0.02 * np.arange(40)
        name = np.dtype(dtype).name
        with pytest.raises(ValueError, match=name):
            single_pulse_search(fb, dms, dtype=dtype)
        args = (fb.data, fb.channel_freqs_mhz, fb.f_high_mhz, fb.sample_time_s, dms)
        with pytest.raises(ValueError, match=f"out_dtype.*{name}"):
            plan_dedispersion(*args, dtype)
        with pytest.raises(ValueError, match=f"out_dtype.*{name}"):
            dedisperse_all(fb, dms, out_dtype=dtype)

    def test_no_boxcar_width_is_refused(self):
        """``boxcar_widths=()`` used to return no SPEs, silently."""
        fb = _filterbank()
        for dms in (40.0 + 0.02 * np.arange(40), np.empty(0)):
            with pytest.raises(ValueError, match="at least one boxcar width"):
                single_pulse_search(fb, dms, boxcar_widths=())
        with pytest.raises(ValueError, match="at least one boxcar width"):
            single_pulse_block_search(np.zeros((2, 64)), 5.0, ())
        with pytest.raises(ValueError, match="at least one boxcar width"):
            boxcar_snr(np.zeros(64), ())

    def test_a_channel_count_mismatch_is_refused(self):
        fb = _filterbank()
        with pytest.raises(ValueError, match="16 channels but 15 channel frequencies"):
            plan_dedispersion(fb.data, fb.channel_freqs_mhz[1:], fb.f_high_mhz, 1e-3, [10.0])
