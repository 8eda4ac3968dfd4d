"""Unit tests for SPE records, observation keys and csv formats."""

import pytest

from repro.astro.spe import SPE, SPE_FILE_HEADER, ObservationKey
from repro.dataplane import SPEBatch
from repro.io.spe_files import build_data_file, parse_data_file


@pytest.fixture
def key():
    return ObservationKey(dataset="PALFA", mjd=55123.25, sky_position="J1853+0101", beam=3)


@pytest.fixture
def spes():
    return [
        SPE(dm=96.7, snr=12.3, time_s=10.5, sample=164062, downfact=30),
        SPE(dm=97.0, snr=9.1, time_s=10.500123, sample=164064, downfact=30),
    ]


class TestObservationKey:
    def test_roundtrip(self, key):
        assert ObservationKey.from_key(key.to_key()) == key

    def test_key_fields_pipe_separated(self, key):
        assert key.to_key() == "PALFA|55123.2500|J1853+0101|3"

    def test_malformed_key_rejected(self):
        with pytest.raises(ValueError):
            ObservationKey.from_key("only|three|parts")


class TestSPE:
    def test_csv_roundtrip(self, spes):
        for spe in spes:
            assert SPE.from_csv_row(spe.to_csv_row()) == spe

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError):
            SPE.from_csv_row("1.0,2.0,3.0")

    def test_parse_spe_line(self, key, spes):
        line = f"{key.to_key()},{spes[0].to_csv_row()}"
        assert parse_data_file(line) == {key.to_key(): SPEBatch.from_records(spes[:1])}

    def test_parse_empty_line_rejected(self):
        with pytest.raises(ValueError):
            parse_data_file("nocomma")


class TestCsvRendering:
    def test_spes_to_csv_prefixes_key(self, key, spes):
        text = SPEBatch.from_records(spes).to_data_csv(key.to_key())
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert all(line.startswith(key.to_key() + ",") for line in lines)

    def test_header_included_when_requested(self):
        assert build_data_file([]) == SPE_FILE_HEADER + "\n"
        assert SPE_FILE_HEADER.startswith("#")

    def test_empty_spes_empty_output(self, key):
        assert SPEBatch.empty().to_data_csv(key.to_key()) == ""

    def test_rows_parse_back(self, key, spes):
        batch = SPEBatch.from_records(spes)
        text = batch.to_data_csv(key.to_key())
        assert parse_data_file(text) == {key.to_key(): batch}
