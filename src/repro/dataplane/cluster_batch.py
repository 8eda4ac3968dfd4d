"""Columnar batches of cluster-file rows.

:class:`ClusterBatch` holds the eleven cluster-file columns as parallel
arrays (strings as object columns).  Same ownership rules as
:class:`repro.dataplane.spe_batch.SPEBatch`: construction and ``slice`` are
zero-copy; ``take``/``concat`` allocate and never mutate inputs.
Serialization is byte-identical to :meth:`ClusterRecord.to_line`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.dataplane._columns import (
    CLUSTER_ROW,
    cluster_columns,
    cluster_record_columns,
    format_rows,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.io.spe_files import ClusterRecord

_COLUMNS = (
    "key", "cluster_id", "rank", "n_spes",
    "dm_lo", "dm_hi", "t_lo", "t_hi", "max_snr",
    "source", "is_rrat",
)


class ClusterBatch:
    """A batch of cluster-file rows as parallel columns."""

    __slots__ = _COLUMNS

    def __init__(
        self,
        key: np.ndarray,
        cluster_id: np.ndarray,
        rank: np.ndarray,
        n_spes: np.ndarray,
        dm_lo: np.ndarray,
        dm_hi: np.ndarray,
        t_lo: np.ndarray,
        t_hi: np.ndarray,
        max_snr: np.ndarray,
        source: np.ndarray | None = None,
        is_rrat: np.ndarray | None = None,
    ) -> None:
        self.key = np.asarray(key, dtype=object)
        self.cluster_id = np.asarray(cluster_id, dtype=np.int64)
        self.rank = np.asarray(rank, dtype=np.int64)
        self.n_spes = np.asarray(n_spes, dtype=np.int64)
        self.dm_lo = np.asarray(dm_lo, dtype=np.float64)
        self.dm_hi = np.asarray(dm_hi, dtype=np.float64)
        self.t_lo = np.asarray(t_lo, dtype=np.float64)
        self.t_hi = np.asarray(t_hi, dtype=np.float64)
        self.max_snr = np.asarray(max_snr, dtype=np.float64)
        n = self.key.size
        self.source = (
            np.full(n, None, dtype=object) if source is None
            else np.asarray(source, dtype=object)
        )
        self.is_rrat = (
            np.zeros(n, dtype=np.bool_) if is_rrat is None
            else np.asarray(is_rrat, dtype=np.bool_)
        )
        if not all(getattr(self, c).size == n for c in _COLUMNS):
            raise ValueError("ClusterBatch columns must have equal length")

    # -- basics ------------------------------------------------------------
    def __len__(self) -> int:
        return self.key.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterBatch):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in _COLUMNS
        )

    def __repr__(self) -> str:
        return f"ClusterBatch(n={len(self)})"

    @property
    def nbytes(self) -> int:
        total = 0
        for c in _COLUMNS:
            col = getattr(self, c)
            if col.dtype == object:
                total += sum(len(v) + 49 if isinstance(v, str) else 16
                             for v in col)
            else:
                total += col.nbytes
        return total

    @classmethod
    def empty(cls) -> "ClusterBatch":
        zi = np.empty(0, dtype=np.int64)
        zf = np.empty(0, dtype=np.float64)
        zo = np.empty(0, dtype=object)
        return cls(zo, zi, zi, zi, zf, zf, zf, zf, zf, zo,
                   np.empty(0, dtype=np.bool_))

    # -- batch ops ---------------------------------------------------------
    def slice(self, start: int, stop: int) -> "ClusterBatch":
        return ClusterBatch(*(getattr(self, c)[start:stop] for c in _COLUMNS))

    def take(self, indices: np.ndarray) -> "ClusterBatch":
        idx = np.asarray(indices)
        return ClusterBatch(*(getattr(self, c)[idx] for c in _COLUMNS))

    @classmethod
    def concat(cls, batches: Sequence["ClusterBatch"]) -> "ClusterBatch":
        batches = [b for b in batches if b is not None]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        return cls(*(
            np.concatenate([getattr(b, c) for b in batches])
            for c in _COLUMNS
        ))

    # -- records in ------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable["ClusterRecord"]) -> "ClusterBatch":
        # ClusterRecord's fields are the batch's columns, in order.
        rows = [[getattr(r, c) for c in _COLUMNS] for r in records]
        return cls(*cluster_record_columns(rows)) if rows else cls.empty()

    # -- serialization (the codec in repro.dataplane._columns) -------------
    def to_lines(self) -> list[str]:
        """Cluster-file rows, byte-identical to ClusterRecord.to_line."""
        cols = [getattr(self, c) for c in _COLUMNS]
        cols[9] = np.where(self.source == None, "", self.source)  # noqa: E711
        return format_rows(CLUSTER_ROW, cols)

    @classmethod
    def from_lines(
        cls,
        lines: Sequence[str],
        *,
        source: str | None = None,
        linenos: Sequence[int] | None = None,
    ) -> "ClusterBatch":
        """Strict parse of cluster-file rows with file:line diagnostics."""
        if not lines:
            return cls.empty()
        return cls(*cluster_columns(lines, source=source, linenos=linenos))


__all__ = ["ClusterBatch"]
