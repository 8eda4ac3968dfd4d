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

import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.dataplane._columns import (
    MalformedRowError,
    float_columns,
    int_columns,
    split_rows,
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

    def sort_by_time(self) -> "SPEBatch":
        return self.take(np.lexsort((self.dm, self.time_s)))

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

    # -- serialization -----------------------------------------------------
    def to_csv_rows(self) -> list[str]:
        """Value rows in the data-file format, identical to SPE.to_csv_row."""
        return [
            f"{d:.3f},{s:.3f},{t:.6f},{a},{f}"
            for d, s, t, a, f in zip(
                self.dm.tolist(), self.snr.tolist(), self.time_s.tolist(),
                self.sample.tolist(), self.downfact.tolist(),
            )
        ]

    def to_data_csv(self, key: str) -> str:
        """Key-prefixed data-file lines (no header), with trailing newline."""
        rows = self.to_csv_rows()
        if not rows:
            return ""
        return "\n".join(f"{key},{row}" for row in rows) + "\n"

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
        parts = split_rows(rows, 5, source=source, linenos=linenos, what="SPE row")
        floats = float_columns(parts, slice(0, 3), source=source,
                               linenos=linenos, what="SPE row")
        ints = int_columns(parts, slice(3, 5), source=source,
                           linenos=linenos, what="SPE row")
        return cls(
            np.ascontiguousarray(floats[:, 0]),
            np.ascontiguousarray(floats[:, 1]),
            np.ascontiguousarray(floats[:, 2]),
            np.ascontiguousarray(ints[:, 0]),
            np.ascontiguousarray(ints[:, 1]),
        )

    @classmethod
    def from_data_rows(cls, rows: Sequence[str]) -> "SPEBatch":
        """Lenient parse of data-file value rows, as the D-RAPID search uses.

        Survey csvs accumulate truncated/garbled rows (interrupted
        transfers, header fragments); a bad row must cost one record, not
        the batch.  A row is kept iff its first three fields parse as
        *finite* floats (``float("nan")`` is a valid parse, and one NaN
        Sigma turns its cluster's bin slopes NaN) — the per-record oracle's
        rule too.  The trailing integer fields are best-effort (the search
        never reads them).
        """
        if not rows:
            return cls.empty()
        parts = [row.split(",") for row in rows]
        try:
            arr = np.asarray(parts, dtype="U")
            if arr.ndim != 2 or arr.shape[1] < 3:
                raise ValueError("not a rectangular >=3-column table")
            floats = arr[:, :3].astype(np.float64)
        except ValueError:
            return cls._from_data_rows_slow(parts)
        if not np.isfinite(floats).all():
            finite = np.isfinite(floats).all(axis=1)
            arr, floats = arr[finite], floats[finite]
        sample = downfact = None
        if arr.shape[1] >= 5:
            try:
                sample = arr[:, 3].astype(np.int64)
                downfact = arr[:, 4].astype(np.int64)
            except (ValueError, OverflowError):
                pass  # garbled trailing fields: keep defaults
        return cls(
            np.ascontiguousarray(floats[:, 0]),
            np.ascontiguousarray(floats[:, 1]),
            np.ascontiguousarray(floats[:, 2]),
            sample, downfact,
        )

    @classmethod
    def _from_data_rows_slow(cls, parts: list[list[str]]) -> "SPEBatch":
        dms: list[float] = []
        snrs: list[float] = []
        times: list[float] = []
        samples: list[int] = []
        downfacts: list[int] = []
        for p in parts:
            if len(p) < 3:
                continue
            try:
                dm, snr, t = float(p[0]), float(p[1]), float(p[2])
            except ValueError:
                continue
            if not (math.isfinite(dm) and math.isfinite(snr) and math.isfinite(t)):
                continue
            dms.append(dm)
            snrs.append(snr)
            times.append(t)
            try:
                samples.append(int(p[3]) if len(p) > 3 else 0)
            except ValueError:
                samples.append(0)
            try:
                downfacts.append(int(p[4]) if len(p) > 4 else 1)
            except ValueError:
                downfacts.append(1)
        return cls(
            np.array(dms, dtype=np.float64),
            np.array(snrs, dtype=np.float64),
            np.array(times, dtype=np.float64),
            np.array(samples, dtype=np.int64),
            np.array(downfacts, dtype=np.int64),
        )


__all__ = ["SPEBatch", "MalformedRowError"]
