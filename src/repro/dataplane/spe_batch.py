"""Columnar batches of single pulse events (SPEs).

An :class:`SPEBatch` is the structure-of-arrays counterpart of a list of
:class:`repro.astro.spe.SPE` records: five parallel NumPy columns.  The
ownership rules are:

- the constructor and ``slice`` are **zero-copy** — columns are views over
  whatever the caller handed in;
- ``take``, ``concat`` and ``sort_by_dm`` allocate fresh columns and never
  mutate their inputs (a hard requirement for Sparklet lineage replay).

Data-file rows use the same fixed ``%.3f``/``%.6f`` formats as
:meth:`SPE.to_csv_row`, byte for byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.dataplane._columns import (
    DATA_ROW,
    MalformedRowError,
    data_columns,
    format_rows,
    strict_data_columns,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.astro.spe import SPE


class SPEBatch:
    """A batch of SPEs as five parallel columns."""

    __slots__ = ("dm", "snr", "time_s", "sample", "downfact")

    def __init__(
        self,
        dm: np.ndarray,
        snr: np.ndarray,
        time_s: np.ndarray,
        sample: np.ndarray | None = None,
        downfact: np.ndarray | None = None,
    ) -> None:
        self.dm = np.asarray(dm, dtype=np.float64)
        self.snr = np.asarray(snr, dtype=np.float64)
        self.time_s = np.asarray(time_s, dtype=np.float64)
        n = self.dm.size
        self.sample = (
            np.zeros(n, dtype=np.int64) if sample is None
            else np.asarray(sample, dtype=np.int64)
        )
        self.downfact = (
            np.ones(n, dtype=np.int64) if downfact is None
            else np.asarray(downfact, dtype=np.int64)
        )
        if not (self.snr.size == self.time_s.size == self.sample.size
                == self.downfact.size == n):
            raise ValueError("SPEBatch columns must have equal length")

    # -- basics ------------------------------------------------------------
    def __len__(self) -> int:
        return self.dm.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SPEBatch):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in self.__slots__
        )

    def __repr__(self) -> str:
        return f"SPEBatch(n={len(self)})"

    @property
    def nbytes(self) -> int:
        """Payload size if shipped as raw column buffers."""
        return sum(getattr(self, c).nbytes for c in self.__slots__)

    @classmethod
    def empty(cls) -> "SPEBatch":
        z = np.empty(0, dtype=np.float64)
        return cls(z, z, z)

    # -- batch ops ---------------------------------------------------------
    def slice(self, start: int, stop: int) -> "SPEBatch":
        """Zero-copy contiguous row range (columns are views)."""
        return SPEBatch(
            self.dm[start:stop], self.snr[start:stop], self.time_s[start:stop],
            self.sample[start:stop], self.downfact[start:stop],
        )

    def take(self, indices: np.ndarray) -> "SPEBatch":
        idx = np.asarray(indices)
        return SPEBatch(
            self.dm[idx], self.snr[idx], self.time_s[idx],
            self.sample[idx], self.downfact[idx],
        )

    @classmethod
    def concat(cls, batches: Sequence["SPEBatch"]) -> "SPEBatch":
        batches = [b for b in batches if b is not None]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        return cls(*(
            np.concatenate([getattr(b, c) for b in batches])
            for c in cls.__slots__
        ))

    def sort_by_dm(self) -> "SPEBatch":
        """Rows sorted by (dm, time_s), stably — what
        ``sorted(spes, key=lambda s: (s.dm, s.time_s))`` gives on records."""
        return self.take(np.lexsort((self.time_s, self.dm)))

    # -- records in ------------------------------------------------------
    @classmethod
    def from_records(cls, spes: Iterable["SPE"]) -> "SPEBatch":
        spes = list(spes)
        if not spes:
            return cls.empty()
        return cls(
            np.array([s.dm for s in spes], dtype=np.float64),
            np.array([s.snr for s in spes], dtype=np.float64),
            np.array([s.time_s for s in spes], dtype=np.float64),
            np.array([s.sample for s in spes], dtype=np.int64),
            np.array([s.downfact for s in spes], dtype=np.int64),
        )

    # -- serialization (the codec in repro.dataplane._columns) -------------
    def _row_columns(self) -> tuple[np.ndarray, ...]:
        return self.dm, self.snr, self.time_s, self.sample, self.downfact

    def to_csv_rows(self) -> list[str]:
        """Value rows in the data-file format, identical to SPE.to_csv_row."""
        return format_rows(DATA_ROW, self._row_columns())

    def to_data_csv(self, key: str) -> str:
        """Key-prefixed data-file lines (no header), with trailing newline:
        one ``%`` template for the whole batch."""
        if not len(self):
            return ""
        template = key.replace("%", "%%") + "," + DATA_ROW
        return "\n".join(format_rows(template, self._row_columns())) + "\n"

    @classmethod
    def from_csv_rows(
        cls,
        rows: Sequence[str],
        *,
        source: str | None = None,
        linenos: Sequence[int] | None = None,
    ) -> "SPEBatch":
        """Strict parse of value rows ``dm,snr,time,sample,downfact``.

        Raises :class:`MalformedRowError` naming ``source`` and the 1-based
        line number of the first bad row.
        """
        if not rows:
            return cls.empty()
        return cls(*strict_data_columns(rows, source=source, linenos=linenos))

    @classmethod
    def from_data_rows(cls, rows: Sequence[str]) -> "SPEBatch":
        """Lenient parse of data-file value rows, as the D-RAPID search uses:
        a row is kept iff DM, Sigma and Time parse as finite floats
        (:func:`repro.dataplane._columns.data_row` states the rule)."""
        return cls(*data_columns(rows)[1])


__all__ = ["SPEBatch", "MalformedRowError"]
