"""Unit tests for the D-RAPID file formats."""

import pytest

from repro.core.rapid import run_rapid_observation_batch
from repro.io.spe_files import (
    ClusterRecord,
    build_cluster_file,
    build_data_file,
    parse_cluster_line,
    read_ml_batch,
    upload_observations,
)


class TestClusterRecord:
    def test_roundtrip_with_truth(self):
        rec = ClusterRecord(
            key="GBT350Drift|55000.0000|J1856+0113|0", cluster_id=7, rank=2,
            n_spes=19, dm_lo=90.0, dm_hi=105.0, t_lo=1.25, t_hi=1.75,
            max_snr=14.3, source="B1853+01", is_rrat=False,
        )
        assert parse_cluster_line(rec.to_line()) == rec

    def test_roundtrip_without_truth(self):
        rec = ClusterRecord(key="K", cluster_id=0, rank=1, n_spes=5,
                            dm_lo=0, dm_hi=1, t_lo=0, t_hi=1, max_snr=6.0)
        parsed = parse_cluster_line(rec.to_line())
        assert parsed.source is None
        assert not parsed.is_rrat

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_cluster_line("a,b,c")


class TestFileBuilders:
    def test_data_file_structure(self, observation):
        text = build_data_file([observation])
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert len(lines) == 1 + len(observation.spes)
        key = observation.key.to_key()
        assert all(line.startswith(key + ",") for line in lines[1:])

    def test_cluster_file_structure(self, observation):
        text = build_cluster_file([observation])
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert len(lines) == 1 + len(observation.clusters)
        records = [parse_cluster_line(l) for l in lines[1:]]
        positive = {c.cluster_id for c in observation.positives()}
        assert {r.cluster_id for r in records if r.source} == positive

    def test_upload_roundtrip(self, observation, dfs):
        data_path, cluster_path = upload_observations(dfs, [observation])
        assert dfs.exists(data_path) and dfs.exists(cluster_path)
        assert dfs.get_text(data_path) == build_data_file([observation])


class TestReadMlFiles:
    def test_roundtrip_through_dfs(self, observation, dfs, ctx):
        pulses = run_rapid_observation_batch(observation).pulse_batch
        text = "".join(row + "\n" for row in pulses.to_ml_lines())
        dfs.put_text("/ml/part-00000", text)
        assert read_ml_batch(dfs, "/ml/") == pulses

    def test_skips_comments_and_blanks(self, dfs, observation):
        row = run_rapid_observation_batch(observation).pulse_batch.to_ml_lines()[0]
        dfs.put_text("/ml2/part-00000", f"# header\n\n{row}\n")
        assert len(read_ml_batch(dfs, "/ml2/")) == 1
