"""Shared helpers of the columnar data plane.

Bulk string→number parsing used by every batch type, plus
:class:`MalformedRowError` which carries the *file name* and *1-based line
number* of a bad row so operators can find it in a multi-gigabyte csv.

Formatting convention: ML-file floats are written with Python ``repr``
(the shortest decimal string that parses back to exactly the same IEEE
double), so serialize→parse round-trips are bit-exact.  The
data/cluster files keep their fixed ``%.3f``/``%.6f`` formats for
compatibility with PRESTO-style tooling; those formats are intentionally
lossy and documented as such.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class MalformedRowError(ValueError):
    """A csv row failed to parse; names the source file and 1-based line."""

    def __init__(self, message: str, source: str | None = None,
                 lineno: int | None = None) -> None:
        self.source = source
        self.lineno = lineno
        if source is not None and lineno is not None:
            message = f"{source}:{lineno}: {message}"
        elif source is not None:
            message = f"{source}: {message}"
        elif lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


def _lineno(linenos: Sequence[int] | None, i: int) -> int:
    return linenos[i] if linenos is not None else i + 1


def split_rows(
    rows: Sequence[str],
    n_fields: int,
    *,
    source: str | None = None,
    linenos: Sequence[int] | None = None,
    what: str = "row",
) -> list[list[str]]:
    """Split csv rows and enforce an exact field count, with row diagnostics."""
    parts = [row.rstrip("\n").split(",") for row in rows]
    for i, p in enumerate(parts):
        if len(p) != n_fields:
            raise MalformedRowError(
                f"malformed {what} ({len(p)} fields, expected {n_fields}): {rows[i]!r}",
                source, _lineno(linenos, i),
            )
    return parts


def float_columns(
    parts: list[list[str]],
    col_slice: slice,
    *,
    source: str | None = None,
    linenos: Sequence[int] | None = None,
    what: str = "row",
) -> np.ndarray:
    """Parse a column slice of split rows into an (n, k) float64 matrix.

    The fast path hands the whole table to NumPy (one C-level parse, the
    same correctly-rounded strtod as Python's ``float``); on failure a slow
    per-value sweep pinpoints the offending row for the error message.
    """
    cols = [p[col_slice] for p in parts]
    try:
        return np.asarray(cols, dtype=np.float64)
    except ValueError:
        for i, row in enumerate(cols):
            for v in row:
                try:
                    float(v)
                except ValueError:
                    raise MalformedRowError(
                        f"malformed {what} (bad float {v!r})",
                        source, _lineno(linenos, i),
                    ) from None
        raise


def int_columns(
    parts: list[list[str]],
    col_slice: slice,
    *,
    source: str | None = None,
    linenos: Sequence[int] | None = None,
    what: str = "row",
) -> np.ndarray:
    """Parse a column slice of split rows into an (n, k) int64 matrix.

    Strict like ``int(...)``: ``"5.5"`` and ``"1e3"`` are rejected, not
    silently truncated.
    """
    cols = [p[col_slice] for p in parts]
    try:
        return np.asarray(cols, dtype="U").astype(np.int64)
    except (ValueError, OverflowError):
        for i, row in enumerate(cols):
            for v in row:
                try:
                    int(v)
                except ValueError:
                    raise MalformedRowError(
                        f"malformed {what} (bad int {v!r})",
                        source, _lineno(linenos, i),
                    ) from None
        raise


def data_lines(
    text: str, *, skip_comments: bool = True
) -> tuple[list[str], list[int]]:
    """Non-blank, non-comment lines of ``text`` with their 1-based numbers."""
    lines: list[str] = []
    linenos: list[int] = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line or (skip_comments and line.startswith("#")):
            continue
        lines.append(line)
        linenos.append(i)
    return lines, linenos
