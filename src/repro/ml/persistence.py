"""Model and benchmark persistence.

Surveys run identification once and classification many times; persisting
trained classifiers and labeled benchmarks between sessions is what makes
that workflow practical.  Models serialize via pickle (they are plain
NumPy/dataclass object graphs); benchmarks serialize as ``.npz`` +
sidecar metadata so the (potentially large) feature matrix stays binary.

Loading is hardened: model files travel between machines (and, with the
streaming serving path, get loaded by long-running services), and a stock
``pickle.load`` executes whatever callable a hostile payload names.
:func:`load_model` therefore unpickles through an allowlisting
``Unpickler`` that only resolves ``repro.*``, NumPy, and the stdlib types
our dataclass graphs actually reference — anything else raises
:class:`pickle.UnpicklingError` naming the rejected class.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any

import numpy as np

#: Format version embedded in every artifact; bump on breaking layout change.
FORMAT_VERSION = 1

#: Modules a saved model may reference: our own types, NumPy's
#: reconstruction machinery, and the stdlib modules dataclass/namedtuple
#: graphs serialize through.
_ALLOWED_MODULES = {"repro", "numpy", "collections", "dataclasses", "copyreg"}
_ALLOWED_MODULE_PREFIXES = ("repro.", "numpy.", "collections.")
#: Plain builtins that appear in pickles of benign object graphs.  Notably
#: absent: ``eval``, ``exec``, ``getattr``, ``__import__`` — anything that
#: turns unpickling into code execution.
_ALLOWED_BUILTINS = frozenset({
    "bool", "bytearray", "bytes", "complex", "dict", "float", "frozenset",
    "int", "list", "object", "range", "set", "slice", "str", "tuple",
})


class _ModelUnpickler(pickle.Unpickler):
    """Unpickler whose ``find_class`` allowlists model-graph types only."""

    def find_class(self, module: str, name: str) -> Any:
        if module == "builtins" and name in _ALLOWED_BUILTINS:
            return super().find_class(module, name)
        if module in _ALLOWED_MODULES or module.startswith(_ALLOWED_MODULE_PREFIXES):
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"refusing to unpickle {module}.{name}: saved models may only "
            "reference repro.*, NumPy, and basic stdlib container types"
        )


def save_model(model: Any, path: str | Path) -> None:
    """Persist a trained classifier to ``path`` (pickle, versioned header)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": FORMAT_VERSION,
        "class_name": type(model).__name__,
        "model": model,
    }
    with path.open("wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_model(path: str | Path) -> Any:
    """Load a classifier saved by :func:`save_model`.

    Unpickles through an allowlist (``repro.*``, NumPy, stdlib container
    types); a payload referencing anything else — e.g. ``os.system`` — is
    rejected with :class:`pickle.UnpicklingError` before any code runs.
    """
    path = Path(path)
    with path.open("rb") as fh:
        payload = _ModelUnpickler(fh).load()
    if not isinstance(payload, dict) or "model" not in payload:
        raise ValueError(f"{path} is not a saved model artifact")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path} has format version {version}; this build reads {FORMAT_VERSION}"
        )
    return payload["model"]


def save_benchmark(bench: "Any", path: str | Path) -> None:
    """Persist a :class:`repro.astro.benchmark.Benchmark` (features + labels).

    The pulse provenance objects are not stored — the persisted artifact is
    the classification benchmark (matrix, truth flags, source names), which
    is what downstream experiments consume.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path.with_suffix(".npz"),
        features=bench.features,
        is_pulsar=bench.is_pulsar,
        is_rrat=bench.is_rrat,
    )
    meta = {
        "format_version": FORMAT_VERSION,
        "survey_name": bench.survey_name,
        "source_names": [s or "" for s in bench.source_names],
    }
    path.with_suffix(".json").write_text(json.dumps(meta))


def load_benchmark(path: str | Path) -> "Any":
    """Load a benchmark saved by :func:`save_benchmark`."""
    from repro.astro.benchmark import Benchmark

    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{path} has format version {meta.get('format_version')}; "
            f"this build reads {FORMAT_VERSION}"
        )
    arrays = np.load(path.with_suffix(".npz"))
    return Benchmark(
        survey_name=meta["survey_name"],
        features=arrays["features"],
        is_pulsar=arrays["is_pulsar"],
        is_rrat=arrays["is_rrat"],
        source_names=[s or None for s in meta["source_names"]],
    )
