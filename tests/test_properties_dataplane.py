"""Property-based tests: columnar batch ops vs record-oriented references.

Each property drives a batch operation (slice, take, concat, sort-by-DM,
serialize round-trip) and checks it agrees with the equivalent computation
done record at a time — the ISSUE's satellite-3 contract.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings
from oracles import record_path as oracle
from oracles.record_path import PulseFeatures, SinglePulse

from repro.astro.spe import SPE
from repro.dataplane import N_FEATURES, ClusterBatch, PulseBatch, SPEBatch
from repro.io.spe_files import ClusterRecord

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


spe_records = st.lists(
    st.builds(
        SPE,
        dm=st.floats(0.0, 2000.0, allow_nan=False),
        snr=st.floats(0.0, 100.0, allow_nan=False),
        time_s=st.floats(0.0, 600.0, allow_nan=False),
        sample=st.integers(0, 10**6),
        downfact=st.integers(1, 300),
    ),
    max_size=40,
)

cluster_records = st.lists(
    st.builds(
        ClusterRecord,
        key=st.sampled_from(["a|1|s|0", "b|2|s|1", "c|3|s|2"]),
        cluster_id=st.integers(0, 500),
        rank=st.integers(1, 6),
        n_spes=st.integers(2, 1000),
        dm_lo=st.floats(0.0, 100.0, allow_nan=False),
        dm_hi=st.floats(100.0, 2000.0, allow_nan=False),
        t_lo=st.floats(0.0, 10.0, allow_nan=False),
        t_hi=st.floats(10.0, 600.0, allow_nan=False),
        max_snr=st.floats(0.0, 100.0, allow_nan=False),
        source=st.one_of(st.none(), st.sampled_from(["J0000+00", "J1234-56"])),
        is_rrat=st.booleans(),
    ),
    max_size=30,
)

pulse_records = st.lists(
    st.builds(
        lambda key, cid, a, width, src, rrat, vec: SinglePulse(
            observation_key=key, cluster_id=cid, spe_start=a, spe_stop=a + width,
            features=PulseFeatures.from_vector(np.array(vec)),
            source_name=src, is_rrat=rrat,
        ),
        key=st.sampled_from(["a|1|s|0", "b|2|s|1"]),
        cid=st.integers(0, 99),
        a=st.integers(0, 1000),
        width=st.integers(1, 50),
        src=st.one_of(st.none(), st.just("J0000+00")),
        rrat=st.booleans(),
        vec=st.lists(finite, min_size=N_FEATURES, max_size=N_FEATURES),
    ),
    max_size=25,
)


class TestSPEBatchProperties:
    @SETTINGS
    @given(spes=spe_records)
    def test_record_round_trip(self, spes):
        batch = SPEBatch.from_records(spes)
        assert oracle.spe_records(batch) == spes

    @SETTINGS
    @given(spes=spe_records, data=st.data())
    def test_slice_matches_list_slice(self, spes, data):
        batch = SPEBatch.from_records(spes)
        i = data.draw(st.integers(0, len(spes)))
        j = data.draw(st.integers(i, len(spes)))
        assert oracle.spe_records(batch.slice(i, j)) == spes[i:j]

    @SETTINGS
    @given(spes=spe_records, data=st.data())
    def test_take_matches_list_indexing(self, spes, data):
        batch = SPEBatch.from_records(spes)
        idx = data.draw(
            st.lists(st.integers(0, max(len(spes) - 1, 0)), max_size=30)
        ) if spes else []
        taken = batch.take(np.array(idx, dtype=np.int64))
        assert oracle.spe_records(taken) == [spes[i] for i in idx]

    @SETTINGS
    @given(chunks=st.lists(spe_records, max_size=5))
    def test_concat_matches_list_concat(self, chunks):
        batches = [SPEBatch.from_records(c) for c in chunks]
        flat = [s for c in chunks for s in c]
        assert oracle.spe_records(SPEBatch.concat(batches)) == flat

    @SETTINGS
    @given(spes=spe_records)
    def test_sort_by_dm_matches_sorted(self, spes):
        batch = SPEBatch.from_records(spes)
        want = sorted(spes, key=lambda s: (s.dm, s.time_s))
        assert oracle.spe_records(batch.sort_by_dm()) == want

    @SETTINGS
    @given(spes=spe_records)
    def test_csv_rows_match_per_record_serializer(self, spes):
        batch = SPEBatch.from_records(spes)
        assert batch.to_csv_rows() == [s.to_csv_row() for s in spes]

    @SETTINGS
    @given(spes=spe_records)
    def test_csv_round_trip_is_parse_stable(self, spes):
        # %.3f/%.6f quantizes, so one round trip may move values; parsing
        # the re-serialized rows must then be a fixed point.
        once = SPEBatch.from_csv_rows(SPEBatch.from_records(spes).to_csv_rows())
        twice = SPEBatch.from_csv_rows(once.to_csv_rows())
        assert once == twice


class TestClusterBatchProperties:
    @SETTINGS
    @given(recs=cluster_records)
    def test_record_round_trip(self, recs):
        batch = ClusterBatch.from_records(recs)
        assert oracle.cluster_records(batch) == recs

    @SETTINGS
    @given(recs=cluster_records)
    def test_lines_match_per_record_serializer(self, recs):
        batch = ClusterBatch.from_records(recs)
        assert batch.to_lines() == [r.to_line() for r in recs]

    @SETTINGS
    @given(chunks=st.lists(cluster_records, max_size=4))
    def test_concat_matches_list_concat(self, chunks):
        batches = [ClusterBatch.from_records(c) for c in chunks]
        flat = [r for c in chunks for r in c]
        assert oracle.cluster_records(ClusterBatch.concat(batches)) == flat


class TestPulseBatchProperties:
    @SETTINGS
    @given(pulses=pulse_records)
    def test_record_round_trip(self, pulses):
        batch = oracle.pulse_batch_from_records(pulses)
        assert oracle.pulse_records(batch) == pulses

    @SETTINGS
    @given(pulses=pulse_records)
    def test_ml_lines_match_per_record_serializer(self, pulses):
        batch = oracle.pulse_batch_from_records(pulses)
        assert batch.to_ml_lines() == [p.to_ml_row() for p in pulses]

    @SETTINGS
    @given(pulses=pulse_records)
    def test_ml_serialize_round_trip_exact(self, pulses):
        batch = oracle.pulse_batch_from_records(pulses)
        assert PulseBatch.from_ml_lines(batch.to_ml_lines()) == batch
        # And per record through the SinglePulse adapter, bit for bit.
        for p in pulses:
            assert SinglePulse.from_ml_row(p.to_ml_row()) == p

    @SETTINGS
    @given(pulses=pulse_records, data=st.data())
    def test_slice_and_take_match_list_ops(self, pulses, data):
        batch = oracle.pulse_batch_from_records(pulses)
        i = data.draw(st.integers(0, len(pulses)))
        j = data.draw(st.integers(i, len(pulses)))
        assert oracle.pulse_records(batch.slice(i, j)) == pulses[i:j]
        idx = data.draw(
            st.lists(st.integers(0, max(len(pulses) - 1, 0)), max_size=20)
        ) if pulses else []
        assert oracle.pulse_records(batch.take(np.array(idx, dtype=np.int64))) == [
            pulses[i] for i in idx
        ]

    @SETTINGS
    @given(chunks=st.lists(pulse_records, max_size=4))
    def test_concat_matches_list_concat(self, chunks):
        batches = [oracle.pulse_batch_from_records(c) for c in chunks]
        flat = [p for c in chunks for p in c]
        assert oracle.pulse_records(PulseBatch.concat(batches)) == flat
