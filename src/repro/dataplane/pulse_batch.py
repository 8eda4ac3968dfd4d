"""Columnar batches of identified single pulses.

:class:`PulseBatch` is what D-RAPID ships between Sparklet stages: six
provenance columns plus one dense ``(n, 22)`` feature matrix.  A shuffle
payload is therefore a handful of large contiguous buffers instead of
thousands of dataclass instances — the whole point of the columnar data
plane.

ML-file serialization uses shortest-exact float formatting (``repr``), so
``from_ml_lines(to_ml_lines(b)) == b`` holds bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataplane._columns import (
    N_FEATURES,
    MalformedRowError,
    ml_columns,
    ml_rows,
)


class PulseBatch:
    """A batch of single pulses: provenance columns + (n, 22) features."""

    __slots__ = ("observation_key", "cluster_id", "spe_start", "spe_stop",
                 "source_name", "is_rrat", "features")

    def __init__(
        self,
        observation_key: np.ndarray,
        cluster_id: np.ndarray,
        spe_start: np.ndarray,
        spe_stop: np.ndarray,
        source_name: np.ndarray,
        is_rrat: np.ndarray,
        features: np.ndarray,
    ) -> None:
        self.observation_key = np.asarray(observation_key, dtype=object)
        self.cluster_id = np.asarray(cluster_id, dtype=np.int64)
        self.spe_start = np.asarray(spe_start, dtype=np.int64)
        self.spe_stop = np.asarray(spe_stop, dtype=np.int64)
        self.source_name = np.asarray(source_name, dtype=object)
        self.is_rrat = np.asarray(is_rrat, dtype=np.bool_)
        self.features = np.asarray(features, dtype=np.float64)
        n = self.observation_key.size
        if self.features.shape != (n, N_FEATURES):
            raise ValueError(
                f"features must be ({n}, {N_FEATURES}), got {self.features.shape}"
            )
        if not (self.cluster_id.size == self.spe_start.size
                == self.spe_stop.size == self.source_name.size
                == self.is_rrat.size == n):
            raise ValueError("PulseBatch columns must have equal length")

    # -- basics ------------------------------------------------------------
    def __len__(self) -> int:
        return self.observation_key.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PulseBatch):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in self.__slots__
        )

    def __repr__(self) -> str:
        return f"PulseBatch(n={len(self)})"

    @property
    def nbytes(self) -> int:
        total = self.features.nbytes
        for c in ("cluster_id", "spe_start", "spe_stop", "is_rrat"):
            total += getattr(self, c).nbytes
        for col in (self.observation_key, self.source_name):
            total += sum(len(v) + 49 if isinstance(v, str) else 16
                         for v in col)
        return total

    @property
    def is_pulsar(self) -> np.ndarray:
        """Truth flag per pulse: generated by a named source."""
        # Elementwise != None compares each object against None in C;
        # only None itself compares equal, so this matches `is not None`.
        return self.source_name != None  # noqa: E711

    @classmethod
    def empty(cls) -> "PulseBatch":
        zo = np.empty(0, dtype=object)
        zi = np.empty(0, dtype=np.int64)
        return cls(zo, zi, zi, zi, zo.copy(), np.empty(0, dtype=np.bool_),
                   np.empty((0, N_FEATURES), dtype=np.float64))

    # -- batch ops ---------------------------------------------------------
    def slice(self, start: int, stop: int) -> "PulseBatch":
        return PulseBatch(*(getattr(self, c)[start:stop] for c in self.__slots__))

    def take(self, indices: np.ndarray) -> "PulseBatch":
        idx = np.asarray(indices)
        return PulseBatch(*(getattr(self, c)[idx] for c in self.__slots__))

    @classmethod
    def concat(cls, batches: Sequence["PulseBatch"]) -> "PulseBatch":
        batches = [b for b in batches if b is not None]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        return cls(*(
            np.concatenate([getattr(b, c) for b in batches])
            for c in cls.__slots__
        ))

    def feature(self, name: str) -> np.ndarray:
        """One named feature column (a zero-copy view into the matrix)."""
        from repro.core.features import FEATURE_NAMES

        return self.features[:, FEATURE_NAMES.index(name)]

    # -- serialization (the codec in repro.dataplane._columns) -------------
    def to_ml_lines(self) -> list[str]:
        """ML-file rows, one per pulse.

        Floats use ``repr`` (shortest exact form), memoized over each
        column's repeated values.
        """
        return ml_rows(*(getattr(self, c) for c in self.__slots__))

    @classmethod
    def from_ml_lines(
        cls,
        lines: Sequence[str],
        *,
        source: str | None = None,
        linenos: Sequence[int] | None = None,
    ) -> "PulseBatch":
        """Strict parse of ML-file rows with file:line diagnostics.

        One tokeniser call parses the 26 numeric fields of every row
        (bit-identical to ``float``/``int``); a block that fails it goes
        field by field, raising :class:`MalformedRowError` at the first bad
        line.
        """
        if not lines:
            return cls.empty()
        return cls(*ml_columns(lines, source=source, linenos=linenos))

    def read_back(self) -> "PulseBatch":
        """The batch its ML rows parse back as, without formatting them:
        ``from_ml_lines(to_ml_lines())`` bit for bit.  ``repr`` writes every
        NaN as ``nan``, which parses to one quiet NaN whatever the payload
        or sign was, and writes an empty source like None; everything else
        round-trips exactly."""
        nan, empty = np.isnan(self.features), self.source_name == ""
        if not (nan.any() or empty.any()):
            return self
        return PulseBatch(
            self.observation_key, self.cluster_id, self.spe_start, self.spe_stop,
            np.where(empty, None, self.source_name), self.is_rrat,
            np.where(nan, np.nan, self.features),
        )


__all__ = ["PulseBatch", "N_FEATURES", "MalformedRowError"]
