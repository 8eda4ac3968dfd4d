"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_generate(self, capsys):
        assert main(["generate", "--pulsars", "3", "--observations", "1",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "single pulse events:" in out
        assert "clusters:" in out

    def test_identify(self, capsys):
        assert main(["identify", "--pulsars", "3", "--observations", "1",
                     "--scheme", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "single pulses identified:" in out
        assert "Non-pulsar" in out

    def test_classify(self, capsys):
        assert main([
            "classify", "--learner", "J48", "--scheme", "2",
            "--positives", "40", "--negatives", "200", "--folds", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Recall=" in out

    def test_classify_with_feature_selection(self, capsys):
        assert main([
            "classify", "--learner", "J48", "--scheme", "4",
            "--positives", "40", "--negatives", "200", "--folds", "2",
            "--feature-selection", "IG", "--smote",
        ]) == 0
        out = capsys.readouterr().out
        assert "feature selection (IG)" in out

    def test_stream(self, capsys):
        assert main(["stream", "--pulsars", "3", "--observations", "1",
                     "--seed", "11", "--batch-interval", "0.25",
                     "--arrival-rate", "600"]) == 0
        out = capsys.readouterr().out
        assert "batches:" in out
        assert "pulses identified:" in out
        assert "widest cluster span:" in out
        assert "max queue depth:" in out

    def test_stream_crash_recovery(self, capsys):
        assert main(["stream", "--pulsars", "3", "--observations", "1",
                     "--seed", "11", "--batch-interval", "0.25",
                     "--arrival-rate", "300", "--checkpoint-interval", "4",
                     "--crash-at", "6"]) == 0
        out = capsys.readouterr().out
        assert "recoveries: 1" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--observations", "3",
                     "--executors", "1", "4", "--data-gb", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "executors:" in out

    def test_simulate_rejects_impossible_cluster(self, capsys):
        # Refused at parse time (exit 2), before D-RAPID runs.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--observations", "1", "--executors", "4", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--executors" in captured.err and "num_executors" in captured.err
        assert "identified" not in captured.out

    def test_serve(self, capsys):
        assert main(["serve", "--tenants", "2", "--pulsars", "3",
                     "--observations", "1", "--seed", "5",
                     "--weights", "2", "1", "--batch-interval", "0.25",
                     "--arrival-rate", "600"]) == 0
        out = capsys.readouterr().out
        assert "tenants: 2 (2 admitted, 0 rejected)" in out
        assert "tenant-0" in out and "tenant-1" in out
        assert "share" in out

    def test_serve_trace_reports_one_tenant(self, capsys, tmp_path):
        # One tenant's trace is trace-report --tenant over the shared log.
        log = tmp_path / "serve.jsonl"
        assert main(["serve", "--tenants", "2", "--pulsars", "3",
                     "--observations", "1", "--seed", "5",
                     "--batch-interval", "0.25", "--arrival-rate", "600",
                     "--trace-out", str(log)]) == 0
        out = capsys.readouterr().out
        assert f"trace written: {log}" in out
        assert main(["trace-report", str(log), "--tenant", "tenant-0"]) == 0
        report = capsys.readouterr().out
        assert "tenant: tenant-0" in report
        assert "scheduling pools" in report
        assert "tenant-1" not in report

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliTracing:
    def test_identify_trace_out_then_report(self, capsys, tmp_path):
        log = tmp_path / "run.jsonl"
        assert main(["identify", "--pulsars", "3", "--observations", "1",
                     "--seed", "4", "--trace-out", str(log)]) == 0
        out = capsys.readouterr().out
        assert f"trace written: {log}" in out
        assert log.exists() and log.stat().st_size > 0

        assert main(["trace-report", str(log)]) == 0
        report = capsys.readouterr().out
        assert "stage timeline" in report
        assert "tasks" in report

    def test_trace_report_json_replays_metrics(self, capsys, tmp_path):
        import json

        log = tmp_path / "run.jsonl"
        assert main(["identify", "--pulsars", "3", "--observations", "1",
                     "--seed", "4", "--trace-out", str(log)]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(log), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["summary"]["n_jobs"] > 0
        assert parsed["stages"]

    def test_simulate_trace_out(self, capsys, tmp_path):
        log = tmp_path / "sim.jsonl"
        assert main(["simulate", "--observations", "2", "--executors", "1", "2",
                     "--data-gb", "0.5", "--trace-out", str(log)]) == 0
        out = capsys.readouterr().out
        assert "trace written:" in out
        from repro.obs import read_events

        kinds = {e["type"] for e in read_events(log)}
        assert "dfs_put" in kinds
        assert "sim_stage" in kinds

    def test_stream_trace_out(self, capsys, tmp_path):
        log = tmp_path / "stream.jsonl"
        assert main(["stream", "--pulsars", "3", "--observations", "1",
                     "--seed", "11", "--batch-interval", "0.25",
                     "--arrival-rate", "600", "--trace-out", str(log)]) == 0
        out = capsys.readouterr().out
        assert "trace written:" in out
        from repro.obs import read_events

        kinds = {e["type"] for e in read_events(log)}
        assert "batch_submitted" in kinds
        assert "watermark_advanced" in kinds


class TestConsoleScript:
    """Satellite: the packaged ``repro`` entry point must resolve."""

    def test_entry_point_declared(self):
        import tomllib
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        meta = tomllib.loads(pyproject.read_text())
        assert meta["project"]["scripts"]["repro"] == "repro.cli:main"

    def test_entry_point_target_is_callable(self):
        import importlib

        module_name, _, attr = "repro.cli:main".partition(":")
        target = getattr(importlib.import_module(module_name), attr)
        assert callable(target)
        assert target is main
