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
    MalformedRowError,
    float_columns,
    int_columns,
    split_rows,
)

#: Width of the feature matrix.  Kept as a literal (not imported from
#: repro.core.features) so the data plane has no module-level dependency on
#: repro.core — core imports the data plane, not vice versa.  A unit test
#: asserts this equals ``len(FEATURE_NAMES)``.
N_FEATURES = 22
_N_META = 6  # observation_key, cluster_id, spe_start, spe_stop, source, is_rrat
#: Numeric ML-row fields: cluster_id, spe_start, spe_stop, is_rrat, features.
_NUM_COLS = (1, 2, 3, 5) + tuple(range(_N_META, _N_META + N_FEATURES))


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

    # -- serialization -----------------------------------------------------
    def _feature_strings(self) -> list[list[str]]:
        """Per-column shortest-exact reprs, memoized over repeated values.

        Cluster-level features (StartTime, ClusterRank, NumPeaks, ...) are
        constant across every pulse of a cluster, so real batches repeat
        values heavily; formatting each distinct bit pattern once skips most
        ``repr`` calls.  Uniqueness is computed on the raw int64 bit
        patterns so ``-0.0``/``0.0`` (equal as floats, different as text)
        stay distinct.
        """
        n = len(self)
        cols: list[list[str]] = []
        by_column = np.ascontiguousarray(self.features.T)
        for j in range(N_FEATURES):
            col = by_column[j]
            bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
            # Memoize whenever ≥20% of the values are repeats: below that
            # the unique/gather overhead roughly cancels the saved reprs.
            if bits.size * 5 <= n * 4:
                reprs = np.array(
                    [repr(v) for v in bits.view(np.float64).tolist()],
                    dtype=object,
                )
                cols.append(reprs[inverse].tolist())
            else:
                cols.append([repr(v) for v in col.tolist()])
        return cols

    def to_ml_lines(self) -> list[str]:
        """ML-file rows, one per pulse.

        Floats use ``repr`` (shortest exact form); NumPy float64 scalars
        stringify identically, so formatting straight off the columns is
        safe.
        """
        feats = self._feature_strings()
        rrat = self.is_rrat.astype(np.int64).tolist()
        return [
            f"{key},{cid},{a},{b},{src or ''},{rr}," + ",".join(vec)
            for key, cid, a, b, src, rr, vec in zip(
                self.observation_key.tolist(), self.cluster_id.tolist(),
                self.spe_start.tolist(), self.spe_stop.tolist(),
                self.source_name.tolist(), rrat, zip(*feats),
            )
        ]

    @classmethod
    def from_ml_lines(
        cls,
        lines: Sequence[str],
        *,
        source: str | None = None,
        linenos: Sequence[int] | None = None,
    ) -> "PulseBatch":
        """Strict parse of ML-file rows with file:line diagnostics.

        Fast path: hand all rows to NumPy's C ``loadtxt`` engine, which
        tokenizes and parses the 26 numeric fields in one pass (its float
        conversion is the same correctly-rounded strtod as Python's
        ``float``, so parsed values are bit-identical).  Any structural or
        numeric anomaly falls back to the field-by-field path, which
        raises :class:`MalformedRowError` naming the offending line.
        """
        if not lines:
            return cls.empty()
        fast = cls._from_ml_lines_fast(lines)
        if fast is not None:
            return fast
        parts = split_rows(lines, _N_META + N_FEATURES, source=source,
                           linenos=linenos, what="ML row")
        ints = int_columns(parts, slice(1, 4), source=source,
                           linenos=linenos, what="ML row")
        rrat = int_columns(parts, slice(5, 6), source=source,
                           linenos=linenos, what="ML row")
        features = float_columns(parts, slice(_N_META, None), source=source,
                                 linenos=linenos, what="ML row")
        return cls(
            np.array([p[0] for p in parts], dtype=object),
            np.ascontiguousarray(ints[:, 0]),
            np.ascontiguousarray(ints[:, 1]),
            np.ascontiguousarray(ints[:, 2]),
            np.array([p[4] or None for p in parts], dtype=object),
            rrat[:, 0] != 0,
            features,
        )

    @classmethod
    def _from_ml_lines_fast(cls, lines: Sequence[str]) -> "PulseBatch | None":
        """Vectorized ML-row parse; None on any anomaly (caller re-parses)."""
        # Fields 0-4 are split off per row (key and source are strings);
        # p[5] is the "is_rrat,f0,...,f21" numeric tail, whose comma count
        # guards against a stray comma shifting columns within a row.
        parts = [line.rstrip("\n").split(",", _N_META - 1) for line in lines]
        if any(len(p) != _N_META or p[5].count(",") != N_FEATURES
               for p in parts):
            return None
        try:
            nums = np.loadtxt(
                lines, delimiter=",", comments=None, usecols=_NUM_COLS,
                dtype=np.float64, ndmin=2,
            )
        except (ValueError, OverflowError):
            return None
        if nums.shape != (len(parts), 4 + N_FEATURES):
            return None
        meta_f = nums[:, :4]
        meta = meta_f.astype(np.int64)
        if not (meta == meta_f).all():  # int fields must be integral
            return None
        return cls(
            np.array([p[0] for p in parts], dtype=object),
            np.ascontiguousarray(meta[:, 0]),
            np.ascontiguousarray(meta[:, 1]),
            np.ascontiguousarray(meta[:, 2]),
            np.array([p[4] or None for p in parts], dtype=object),
            meta[:, 3] != 0,
            np.ascontiguousarray(nums[:, 4:]),
        )


__all__ = ["PulseBatch", "N_FEATURES", "MalformedRowError"]
