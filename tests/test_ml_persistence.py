"""Unit tests for model/benchmark persistence."""

import numpy as np
import pytest

from repro.ml import J48, RandomForest
from repro.ml.persistence import (
    FORMAT_VERSION,
    load_benchmark,
    load_model,
    save_benchmark,
    save_model,
)


class TestModelPersistence:
    def test_roundtrip_preserves_predictions(self, toy_classification, tmp_path):
        X, y = toy_classification
        model = RandomForest(n_trees=7, seed=0).fit(X, y)
        save_model(model, tmp_path / "rf.pkl")
        loaded = load_model(tmp_path / "rf.pkl")
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_roundtrip_tree(self, toy_classification, tmp_path):
        X, y = toy_classification
        model = J48().fit(X, y)
        save_model(model, tmp_path / "tree.pkl")
        loaded = load_model(tmp_path / "tree.pkl")
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_creates_parent_directories(self, toy_classification, tmp_path):
        X, y = toy_classification
        save_model(J48().fit(X, y), tmp_path / "deep" / "nested" / "m.pkl")
        assert (tmp_path / "deep" / "nested" / "m.pkl").exists()

    def test_rejects_non_model_file(self, tmp_path):
        import pickle

        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="not a saved model"):
            load_model(path)

    def test_rejects_wrong_version(self, toy_classification, tmp_path):
        import pickle

        X, y = toy_classification
        payload = {"format_version": FORMAT_VERSION + 1, "class_name": "J48",
                   "model": J48().fit(X, y)}
        path = tmp_path / "future.pkl"
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            load_model(path)


class _EvilSystem:
    """Pickles to ``os.system("...")`` — classic unpickling RCE payload."""

    def __reduce__(self):
        import os

        return (os.system, ("echo pwned > /dev/null",))


class _EvilEval:
    """Pickles to ``eval("...")`` — RCE through an allowed-looking module."""

    def __reduce__(self):
        return (eval, ("1+1",))


class TestHostilePayloads:
    """load_model must refuse payloads that resolve non-allowlisted classes."""

    def test_os_system_payload_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "evil.pkl"
        path.write_bytes(pickle.dumps(
            {"format_version": FORMAT_VERSION, "class_name": "X",
             "model": _EvilSystem()}
        ))
        with pytest.raises(pickle.UnpicklingError, match="refusing to unpickle"):
            load_model(path)

    def test_eval_payload_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "evil.pkl"
        path.write_bytes(pickle.dumps(
            {"format_version": FORMAT_VERSION, "class_name": "X",
             "model": _EvilEval()}
        ))
        with pytest.raises(pickle.UnpicklingError, match="builtins.eval"):
            load_model(path)

    def test_error_names_the_rejected_class(self, tmp_path):
        import pickle

        path = tmp_path / "evil.pkl"
        path.write_bytes(pickle.dumps(_EvilSystem()))
        with pytest.raises(pickle.UnpicklingError) as excinfo:
            load_model(path)
        assert "system" in str(excinfo.value)

    def test_subprocess_payload_rejected(self, tmp_path):
        import pickle
        import subprocess

        class EvilCall:
            def __reduce__(self):
                return (subprocess.call, (["true"],))

        path = tmp_path / "evil.pkl"
        path.write_bytes(pickle.dumps(EvilCall()))
        with pytest.raises(pickle.UnpicklingError, match="subprocess"):
            load_model(path)

    def test_benign_numpy_graph_still_loads(self, tmp_path):
        """The allowlist must not reject what save_model legitimately writes."""
        save_model({"w": np.arange(5.0), "meta": (1, "x")}, tmp_path / "m.pkl")
        loaded = load_model(tmp_path / "m.pkl")
        np.testing.assert_array_equal(loaded["w"], np.arange(5.0))


class TestBenchmarkPersistence:
    def test_roundtrip(self, small_benchmark, tmp_path):
        save_benchmark(small_benchmark, tmp_path / "bench")
        loaded = load_benchmark(tmp_path / "bench")
        assert loaded.survey_name == small_benchmark.survey_name
        np.testing.assert_allclose(loaded.features, small_benchmark.features)
        np.testing.assert_array_equal(loaded.is_pulsar, small_benchmark.is_pulsar)
        assert loaded.source_names == small_benchmark.source_names

    def test_labels_identical_after_roundtrip(self, small_benchmark, tmp_path):
        save_benchmark(small_benchmark, tmp_path / "bench")
        loaded = load_benchmark(tmp_path / "bench")
        for scheme in ("2", "4*", "7", "8"):
            np.testing.assert_array_equal(
                loaded.labels(scheme), small_benchmark.labels(scheme)
            )

    def test_loaded_benchmark_subsamples_like_the_built_one(self, small_benchmark, tmp_path):
        save_benchmark(small_benchmark, tmp_path / "bench")
        got = load_benchmark(tmp_path / "bench").subsample(40, 120, seed=3)
        want = small_benchmark.subsample(40, 120, seed=3)
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.is_pulsar, want.is_pulsar)
        np.testing.assert_array_equal(got.is_rrat, want.is_rrat)
        assert got.source_names == want.source_names

    def test_version_gate(self, small_benchmark, tmp_path):
        import json

        save_benchmark(small_benchmark, tmp_path / "bench")
        meta_path = (tmp_path / "bench").with_suffix(".json")
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format version"):
            load_benchmark(tmp_path / "bench")
