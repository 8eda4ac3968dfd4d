"""Equivalence gates for the columnar data plane.

The refactor's contract is *byte identity*: every batch-built artifact
(data file, cluster file, D-RAPID ML part files) must equal what the
record-oriented oracle (``tests/oracles/record_path.py``) produces, bit for
bit.  These tests are the gate — if one fails, the columnar path has drifted.
"""

import numpy as np
import pytest
from oracles.record_path import (
    PulseFeatures,
    SinglePulse,
    _reference_build_cluster_file,
    _reference_build_data_file,
    cluster_records,
    pulse_batch_from_records,
    pulse_records,
    run_rapid_observation,
    run_reference,
    spe_records,
)

from repro.astro import GBT350DRIFT, generate_observation
from repro.astro.population import b1853_like
from repro.core.drapid import DRapidDriver
from repro.core.features import FEATURE_NAMES
from repro.core.rapid import run_rapid_observation_batch
from repro.dataplane import (
    N_FEATURES,
    ClusterBatch,
    MalformedRowError,
    PulseBatch,
    SPEBatch,
)
from repro.io.spe_files import (
    build_cluster_file,
    build_data_file,
    parse_cluster_file,
    parse_data_file,
    read_ml_batch,
    upload_observations,
)


@pytest.fixture(scope="module")
def observations():
    """Two small observations with pulsar + noise + RFI clusters."""
    return [
        generate_observation(
            GBT350DRIFT, [b1853_like()], mjd=55000.0 + i, beam=i, seed=40 + i,
            n_noise_clusters=25, n_rfi_bursts=2, n_pulse_mimics=6,
            obs_length_s=45.0,
        )
        for i in range(2)
    ]


class TestLayerConsistency:
    def test_n_features_matches_feature_names(self):
        # The data plane holds this as a literal to stay import-cycle-free;
        # this is the cross-check ISSUE requires.
        assert N_FEATURES == len(FEATURE_NAMES) == 22


class TestFileBuilders:
    def test_data_file_byte_identical(self, observations):
        assert build_data_file(observations) == _reference_build_data_file(
            observations
        )

    def test_cluster_file_byte_identical(self, observations):
        assert build_cluster_file(observations) == _reference_build_cluster_file(
            observations
        )

    def test_data_file_parses_back(self, observations):
        text = build_data_file(observations)
        by_key = parse_data_file(text, source="data.csv")
        assert list(by_key) == [o.key.to_key() for o in observations]
        for obs in observations:
            batch = by_key[obs.key.to_key()]
            assert len(batch) == len(obs.spes)
            # Written with %.3f/%.6f, so parse-back is quantized, not exact.
            np.testing.assert_allclose(batch.dm, obs.spe_batch.dm, atol=5e-4)
            np.testing.assert_allclose(
                batch.time_s, obs.spe_batch.time_s, atol=5e-7
            )
            assert np.array_equal(batch.downfact, obs.spe_batch.downfact)

    def test_cluster_file_parses_back(self, observations):
        text = build_cluster_file(observations)
        batch = parse_cluster_file(text, source="clusters.csv")
        assert len(batch) == sum(len(o.clusters) for o in observations)
        # Re-serializing the parsed batch reproduces the file exactly.
        header, *lines = text.rstrip("\n").split("\n")
        assert batch.to_lines() == lines


class TestRapidBatchEquivalence:
    def test_observation_search_matches_record_path(self, observation):
        serial = run_rapid_observation(observation)
        batched = run_rapid_observation_batch(observation)
        assert batched.n_clusters_searched == serial.n_clusters_searched
        assert batched.n_clusters_skipped == serial.n_clusters_skipped
        assert len(batched.pulse_batch) == len(serial.pulses)
        reference = pulse_batch_from_records(serial.pulses)
        assert batched.pulse_batch == reference  # bitwise column equality


class TestDRapidEquivalence:
    """The ISSUE acceptance gate: run() vs run_reference(), byte for byte."""

    @pytest.fixture(scope="class")
    def uploaded(self, observations):
        from repro.dfs import DataNode, DFSClient

        dfs = DFSClient(
            [DataNode(f"dn{i}") for i in range(4)],
            replication=2, block_size=4096, seed=0,
        )
        data_path, cluster_path = upload_observations(dfs, observations)
        return dfs, data_path, cluster_path

    @pytest.fixture(scope="class")
    def both_runs(self, observations, uploaded):
        from repro.sparklet import SparkletContext

        dfs, data_path, cluster_path = uploaded
        grids = {"GBT350Drift": observations[0].grid}
        ctx = SparkletContext(app_name="equiv", default_parallelism=4)
        driver = DRapidDriver(ctx=ctx, dfs=dfs, grids=grids, num_partitions=6)
        columnar = driver.run(data_path, cluster_path, ml_output_path="/ml/col")
        reference = run_reference(
            driver, data_path, cluster_path, ml_output_path="/ml/ref"
        )
        ctx.close()
        return dfs, columnar, reference

    def test_ml_part_files_byte_identical(self, both_runs):
        dfs, columnar, reference = both_runs
        col_parts = dfs.ls("/ml/col/")
        ref_parts = dfs.ls("/ml/ref/")
        assert len(col_parts) == len(ref_parts) > 0
        for cp, rp in zip(sorted(col_parts), sorted(ref_parts)):
            assert dfs.get_text(cp) == dfs.get_text(rp)

    def test_result_bookkeeping_identical(self, both_runs):
        _dfs, columnar, reference = both_runs
        assert columnar.n_pulses == reference.n_pulses > 0
        assert columnar.n_clusters == reference.n_clusters
        assert columnar.n_null_joins == reference.n_null_joins == 0
        assert (
            columnar.n_dropped_cluster_rows
            == reference.n_dropped_cluster_rows
            == 0
        )
        assert columnar.pulse_batch == reference.pulse_batch

    def test_read_ml_batch_round_trips(self, both_runs):
        dfs, columnar, _reference = both_runs
        assert read_ml_batch(dfs, "/ml/col") == columnar.pulse_batch

    def test_classification_report_identical(self, both_runs):
        from repro.core.alm import ALM_SCHEMES, label_instances
        from repro.ml.forest import RandomForest
        from repro.ml.validation import cross_validate

        _dfs, columnar, reference = both_runs
        scheme = ALM_SCHEMES["2"]
        reports = []
        for result in (columnar, reference):
            pb = result.pulse_batch
            labels = label_instances(
                scheme, pb.features, pb.is_pulsar, np.asarray(pb.is_rrat)
            )
            reports.append(
                cross_validate(
                    lambda: RandomForest(n_trees=5, seed=0),
                    pb.features, labels, n_folds=2,
                    positive_collapse=scheme, seed=0,
                )
            )
        got, want = reports
        assert np.array_equal(got.confusion, want.confusion)
        assert got.recalls == want.recalls
        assert got.precisions == want.precisions
        assert got.f_measures == want.f_measures
        assert got.instance_correct == want.instance_correct


class TestNonFiniteDataRows:
    """A data row whose DM, Sigma or Time is not a finite float costs one
    record — the run equals the run on the file with that row deleted."""

    NON_FINITE = ["nan", "inf", "-inf"]

    @pytest.fixture(scope="class")
    def cluster(self):
        from repro.dfs import DataNode, DFSClient
        from repro.sparklet import SparkletContext

        dfs = DFSClient(
            [DataNode(f"dn{i}") for i in range(4)],
            replication=2, block_size=4096, seed=0,
        )
        ctx = SparkletContext(app_name="non-finite", default_parallelism=4)
        yield dfs, ctx
        ctx.close()

    @pytest.fixture(scope="class")
    def brightest_deleted(self, observation, cluster):
        """(lines, brightest row index, driver, run without that row)."""
        dfs, ctx = cluster
        lines = build_data_file([observation]).splitlines()
        sigma = [float(line.split(",")[2]) if i else -1.0 for i, line in enumerate(lines)]
        brightest = int(np.argmax(sigma))
        dfs.put_text("/nf/clusters.csv", build_cluster_file([observation]))
        dfs.put_text("/nf/deleted.csv", "\n".join(
            line for i, line in enumerate(lines) if i != brightest) + "\n")
        driver = DRapidDriver(ctx=ctx, dfs=dfs, num_partitions=4,
                              grids={"GBT350Drift": observation.grid})
        deleted = driver.run("/nf/deleted.csv", "/nf/clusters.csv", "/nf/ml-deleted")
        assert deleted.n_pulses > 0
        return lines, brightest, driver, deleted

    @pytest.mark.parametrize("field", [1, 2, 3], ids=["DM", "Sigma", "Time"])
    @pytest.mark.parametrize("token", NON_FINITE)
    def test_non_finite_row_equals_row_removed(self, brightest_deleted, field, token):
        import warnings

        lines, brightest, driver, deleted = brightest_deleted
        dfs = driver.dfs
        parts = lines[brightest].split(",")
        parts[field] = token
        mutated = lines[:brightest] + [",".join(parts)] + lines[brightest + 1:]
        case = f"/nf/{token}-{field}"  # the DFS is write-once
        dfs.put_text(f"{case}/data.csv", "\n".join(mutated) + "\n")

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = driver.run(f"{case}/data.csv", "/nf/clusters.csv", f"{case}/ml")
        assert_identical_runs(dfs, got, f"{case}/ml", deleted, "/nf/ml-deleted")
        reference = run_reference(
            driver, f"{case}/data.csv", "/nf/clusters.csv", f"{case}/ml-reference"
        )
        assert_identical_runs(dfs, got, f"{case}/ml", reference, f"{case}/ml-reference")

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_lenient_parser_drops_the_row_on_both_paths(self, token):
        rows = ["10.0,8.0,1.5,3,2", f"11.0,{token},1.6,4,2", "12.0,9.0,1.7,5,2"]
        want = SPEBatch.from_data_rows([rows[0], rows[2]])
        assert SPEBatch.from_data_rows(rows) == want
        # A garbled row sends the block down the per-row path: same rule.
        assert SPEBatch.from_data_rows(rows + ["garbled"]) == want

    def test_garbled_int_field_resets_only_its_row(self):
        """Sample/Downfact are best-effort per row on every path: one bad
        field costs its own row's default, not the whole block's."""
        rows = ["1.0,2.0,3.0,10,2", "1.5,2.5,3.5,x,4", "2.0,3.0,4.0,12,8"]
        for block in (rows, rows + ["garbled"], rows[:1] + ["1.5,2.5,3.5"] + rows[2:]):
            got = SPEBatch.from_data_rows(block)
            assert got.sample.tolist() == [10, 0, 12]
            assert got.downfact.tolist()[::2] == [2, 8]
        assert SPEBatch.from_data_rows(rows).downfact.tolist() == [2, 4, 8]


def assert_identical_runs(dfs, got, got_path, want, want_path) -> None:
    """Pulse batches equal and ML part files byte-identical."""
    assert got.pulse_batch == want.pulse_batch
    got_parts = sorted(dfs.ls(got_path + "/"))  # ls matches by prefix
    want_parts = sorted(dfs.ls(want_path + "/"))
    assert len(got_parts) == len(want_parts) > 0
    for g, w in zip(got_parts, want_parts):
        assert dfs.get_text(g) == dfs.get_text(w)


class TestMlRowExactRoundTrip:
    """Satellite 1: repr-based floats make the ML row round-trip exact."""

    def test_awkward_floats_survive(self):
        vec = np.array(
            [0.1, 1 / 3, np.pi, 1e-17, 6.02e23, -0.0, 5.0, 123456.789012345,
             np.nextafter(1.0, 2.0)] + [float(i) / 7 for i in range(13)]
        )
        p = SinglePulse(
            observation_key="GBT350Drift|55000.0|g10.0+0.0|0",
            cluster_id=3, spe_start=10, spe_stop=25,
            features=PulseFeatures.from_vector(vec),
            source_name="J1234+56", is_rrat=True,
        )
        q = SinglePulse.from_ml_row(p.to_ml_row())
        assert q == p
        assert np.array_equal(q.features.to_vector(), vec)  # bitwise

    def test_batch_ml_lines_match_record_rows(self, observation):
        result = run_rapid_observation_batch(observation)
        pb = result.pulse_batch
        assert pb.to_ml_lines() == [p.to_ml_row() for p in pulse_records(pb)]
        assert PulseBatch.from_ml_lines(pb.to_ml_lines()) == pb


class TestMalformedDiagnostics:
    """Satellite 2: parse errors name the file and the 1-based line."""

    def test_data_file_bad_float(self):
        text = "# header\n" + "k|55000|sky|0,10.0,8.0,1.5,3,2\n" \
            + "k|55000|sky|0,10.0,oops,1.6,4,2\n"
        with pytest.raises(MalformedRowError) as err:
            parse_data_file(text, source="/surveys/data.csv")
        assert err.value.source == "/surveys/data.csv"
        assert err.value.lineno == 3
        assert str(err.value).startswith("/surveys/data.csv:3: ")

    def test_data_file_missing_key(self):
        with pytest.raises(MalformedRowError) as err:
            parse_data_file("# h\nnocommas\n", source="d.csv")
        assert (err.value.source, err.value.lineno) == ("d.csv", 2)

    def test_cluster_file_wrong_field_count(self):
        good = "k|55000|sky|0,1,2,5,10.0,12.0,0.5,0.9,8.0,,0"
        text = "# h\n" + good + "\nshort,row\n"
        with pytest.raises(MalformedRowError) as err:
            parse_cluster_file(text, source="clusters.csv")
        assert err.value.lineno == 3
        assert "clusters.csv:3:" in str(err.value)

    def test_ml_part_file_bad_int(self, dfs):
        row = ",".join(
            ["k|55000|sky|0", "1", "x", "9", "", "0"] + ["0.0"] * 22
        )
        dfs.put_text("/ml/bad/part-00000", row + "\n")
        with pytest.raises(MalformedRowError) as err:
            read_ml_batch(dfs, "/ml/bad")
        assert err.value.source == "/ml/bad/part-00000"
        assert err.value.lineno == 1

    def test_error_is_a_value_error(self):
        # Drapid's per-row fallback catches ValueError; the subclass must
        # keep that contract.
        assert issubclass(MalformedRowError, ValueError)

    def test_blank_and_comment_lines_do_not_shift_numbering(self):
        text = "# c\n\nk,1,2,5,1.0,2.0,0.5,0.9,8.0,,0\n\nbad\n"
        with pytest.raises(MalformedRowError) as err:
            parse_cluster_file(text, source="c.csv")
        assert err.value.lineno == 5


class TestBatchAdapters:
    def test_spe_batch_record_round_trip(self, observation):
        batch = observation.spe_batch
        assert SPEBatch.from_records(spe_records(batch)) == batch

    def test_cluster_batch_record_round_trip(self, observations):
        text = build_cluster_file(observations)
        batch = parse_cluster_file(text)
        assert ClusterBatch.from_records(cluster_records(batch)) == batch

    def test_pulse_batch_record_round_trip(self, observation):
        pb = run_rapid_observation_batch(observation).pulse_batch
        assert pulse_batch_from_records(pulse_records(pb)) == pb

    def test_slices_are_views(self, observation):
        batch = observation.spe_batch
        view = batch.slice(2, 8)
        assert view.dm.base is batch.dm or view.dm.base is batch.dm.base
        assert len(view) == 6
