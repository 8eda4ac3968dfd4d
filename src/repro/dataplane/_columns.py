"""The columnar text codec: every conversion between the data plane's
batches and the csv rows D-RAPID exchanges through the DFS — data-file
value rows ``DM,Sigma,Time_s,Sample,Downfact`` ↔ :class:`SPEBatch` columns,
cluster-file rows ↔ :class:`ClusterBatch`, ML rows ↔ :class:`PulseBatch`.

Parsing is a block at a time: :func:`tokenise` hands a key group or a
whole file to NumPy's C ``loadtxt`` in one call.  Its floats are the same
correctly-rounded strtod as ``float``, its ints as strict as ``int``, and it
accepts a subset of what they accept (no ``1_0``, no non-ASCII digits, no
blank row).  A block that fails it goes through the per-row rule, which is
the reference — the fast path only ever gets the per-row answer faster.
The per-row rules live here and nowhere else: the lenient keep-rule of
the D-RAPID search (:func:`data_row`) and the strict formats
(:func:`strict_row` over ``SPE_FIELDS``/``CLUSTER_FIELDS``/``ML_FIELDS``).

Formatting is one ``%`` template per block.  ML floats use ``repr`` (the
shortest string that parses back to the same double), so ML rows
round-trip bit for bit; the data/cluster files keep their lossy
``%.3f``/``%.6f`` PRESTO-style formats.  :class:`MalformedRowError` names
the file and 1-based line of a bad row.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: Width of the ML feature matrix.  A literal, not imported from
#: repro.core.features, so the data plane has no dependency on repro.core
#: (core imports the data plane, not vice versa); a unit test asserts it
#: equals ``len(FEATURE_NAMES)``.
N_FEATURES = 22


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


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------
def tokenise(
    rows: Sequence[str], dtype: np.dtype | type, usecols: Sequence[int] | None = None
) -> np.ndarray | None:
    """Parse a non-empty block of csv rows in one C-level call.

    A structured ``dtype`` gives one record per row; ``object`` gives an
    ``(n, k)`` table of field strings, and then every row must have the same
    number of fields.  Returns None when the block fails the fast parse —
    a bad token, a short or ragged row, or a blank row (``loadtxt`` skips
    those, so the row count no longer matches).
    """
    if not rows[0].strip("\r\n"):
        return None  # possibly nothing but blank rows: loadtxt would warn
    try:
        table = np.loadtxt(
            rows, delimiter=",", comments=None, dtype=dtype, usecols=usecols,
            ndmin=2 if dtype is object else 1,
        )
    except (ValueError, OverflowError):
        return None
    return table if len(table) == len(rows) else None


def format_rows(template: str, columns: Sequence[np.ndarray]) -> list[str]:
    """One ``%`` template applied row by row across parallel columns."""
    return list(map(template.__mod__, zip(*(c.tolist() for c in columns))))


def key_groups(lines: Iterable[str]) -> dict[str, list[str]]:
    """A partition's ``key,rest`` lines grouped by key.

    Values are the rows with the ``key,`` prefix stripped; keys keep their
    first-seen order and rows their file order.  Blank and ``#`` lines are
    skipped — a line starts with ``#`` exactly when its key does, so those
    groups are dropped after grouping rather than testing every line.
    """
    lines = list(lines)
    if "" in lines:
        lines = [line for line in lines if line]
    by_key: dict[str, list[str]] = {}
    for line in lines:
        key, _, rest = line.partition(",")
        by_key.setdefault(key, []).append(rest)
    for key in [k for k in by_key if k.startswith("#")]:
        del by_key[key]
    return by_key


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


# ---------------------------------------------------------------------------
# The strict per-row rule (file:line diagnostics)
# ---------------------------------------------------------------------------
def _int64(text: str) -> int:
    """``int(text)``, refused with ValueError outside int64 (every int
    column is int64)."""
    value = int(text)
    if not -(1 << 63) <= value < (1 << 63):
        raise ValueError(f"{text!r} does not fit int64")
    return value


def _optional(text: str) -> str | None:
    return text or None


def _flag(text: str) -> bool:
    return _int64(text) != 0


#: Each strict format's field converters, in order.
SPE_FIELDS = (float, float, float, _int64, _int64)
CLUSTER_FIELDS = (str, _int64, _int64, _int64, *(float,) * 5, _optional, _flag)
ML_FIELDS = (str, _int64, _int64, _int64, _optional, _flag, *(float,) * N_FEATURES)


def strict_row(
    row: str, fields: tuple, what: str,
    source: str | None = None, lineno: int | None = None,
) -> tuple:
    """One row under a strict format: exactly ``len(fields)`` fields, each
    through its converter.  Raises :class:`MalformedRowError` naming
    ``source``/``lineno`` when given."""
    parts = row.rstrip("\n").split(",")
    if len(parts) != len(fields):
        raise MalformedRowError(
            f"malformed {what} ({len(parts)} fields, expected {len(fields)}): {row!r}",
            source, lineno,
        )
    try:
        return tuple(convert(p) for convert, p in zip(fields, parts))
    except ValueError as exc:
        raise MalformedRowError(f"malformed {what} ({exc}): {row!r}", source, lineno) from None


def _strict_rows(rows: Sequence[str], fields: tuple, what: str,
                 source: str | None, linenos: Sequence[int] | None) -> list[tuple]:
    return [
        strict_row(row, fields, what, source, linenos[i] if linenos is not None else i + 1)
        for i, row in enumerate(rows)
    ]


# ---------------------------------------------------------------------------
# Data rows ↔ SPE columns
# ---------------------------------------------------------------------------
#: A data-file value row, byte-identical to ``SPE.to_csv_row``.
DATA_ROW = "%.3f,%.3f,%.6f,%d,%d"
_DATA_DTYPE = np.dtype([("f", np.float64, 3), ("i", np.int64, 2)])


def _int64_field(parts: list[str], i: int, default: int) -> int:
    try:
        return _int64(parts[i])
    except (IndexError, ValueError):
        return default


def data_row(row: str) -> tuple[float, float, float, int, int] | None:
    """The lenient keep-rule for one value row ``DM,Sigma,Time[,Sample[,Downfact]]``.

    Survey csvs accumulate truncated/garbled rows (interrupted transfers,
    header fragments); a bad row must cost one record, not the block.  A
    row is kept iff its first three fields parse as *finite* floats
    (``float("nan")`` is a valid parse, and one NaN Sigma turns its
    cluster's bin slopes NaN).  Sample and Downfact are best-effort, each
    on its own: one that is missing or not an int64 becomes 0 / 1 (the
    search never reads them).  Returns the five values, or None when the
    row is dropped.
    """
    parts = row.split(",")
    if len(parts) < 3:
        return None
    try:
        dm, snr, t = float(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        return None
    if not (math.isfinite(dm) and math.isfinite(snr) and math.isfinite(t)):
        return None
    return dm, snr, t, _int64_field(parts, 3, 0), _int64_field(parts, 4, 1)


def _spe_columns(floats: np.ndarray, ints: np.ndarray) -> list[np.ndarray]:
    """dm, snr, time_s, sample, downfact as contiguous columns."""
    return [np.ascontiguousarray(c) for c in (*floats.T, *ints.T)]


def data_columns(rows: Sequence[str]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Lenient parse of value rows under :func:`data_row`'s rule: the
    indices of the kept rows and the five SPE columns.  Fields past the
    fifth are ignored, as the per-row rule ignores them."""
    table = tokenise(rows, _DATA_DTYPE, usecols=range(5)) if rows else None
    if table is None:
        parsed = [data_row(row) for row in rows]
        kept = [i for i, p in enumerate(parsed) if p is not None]
        values = np.array([parsed[i] for i in kept], dtype=object).reshape(-1, 5)
        return np.array(kept, dtype=np.intp), _spe_columns(
            values[:, :3].astype(np.float64), values[:, 3:].astype(np.int64))
    finite = np.isfinite(table["f"]).all(axis=1)
    kept = np.arange(len(rows)) if finite.all() else np.flatnonzero(finite)
    if kept.size < len(rows):
        table = table[kept]
    return kept, _spe_columns(table["f"], table["i"])


def strict_data_columns(
    rows: Sequence[str],
    *,
    source: str | None = None,
    linenos: Sequence[int] | None = None,
) -> list[np.ndarray]:
    """Strict parse of value rows: exactly five fields, floats then ints."""
    table = tokenise(rows, _DATA_DTYPE)
    if table is not None:
        return _spe_columns(table["f"], table["i"])
    values = np.array(_strict_rows(rows, SPE_FIELDS, "SPE row", source, linenos),
                      dtype=object)
    return _spe_columns(values[:, :3].astype(np.float64), values[:, 3:].astype(np.int64))


# ---------------------------------------------------------------------------
# Cluster rows ↔ ClusterBatch columns
# ---------------------------------------------------------------------------
#: A cluster-file row, byte-identical to ``ClusterRecord.to_line``.
CLUSTER_ROW = "%s,%d,%d,%d,%.3f,%.3f,%.6f,%.6f,%.3f,%s,%d"


def cluster_columns(
    rows: Sequence[str],
    key: str | None = None,
    *,
    source: str | None = None,
    linenos: Sequence[int] | None = None,
) -> list[np.ndarray]:
    """Strict parse of non-empty cluster rows into the eleven columns.

    With ``key``, ``rows`` are one key group's value rows, as
    :func:`key_groups` returns them.  The fast path converts the field
    strings with ``int``/``float`` themselves, so it agrees with the
    per-row rule (``CLUSTER_FIELDS``) token for token; the first bad row
    raises :class:`MalformedRowError`.
    """
    width = 11 if key is None else 10
    table = tokenise(rows, object)
    if table is not None and table.shape[1] == width:
        if key is None:
            keys, table = table[:, 0], table[:, 1:]
        else:
            keys = np.full(len(rows), key, dtype=object)
        try:
            ints = table[:, 0:3].astype(np.int64)
            floats = table[:, 3:8].astype(np.float64)
            rrat = table[:, 9].astype(np.int64) != 0
        except (ValueError, OverflowError):
            pass
        else:
            src = table[:, 8]
            return [keys, *ints.T, *floats.T,
                    np.where(src == "", None, src), rrat]
    prefix = "" if key is None else key + ","
    return cluster_record_columns(_strict_rows(
        [prefix + row for row in rows], CLUSTER_FIELDS, "cluster line", source, linenos))


def cluster_record_columns(records: Sequence[tuple]) -> list[np.ndarray]:
    """The eleven columns of already-parsed cluster rows."""
    cols = list(zip(*records))
    return [
        np.array(cols[0], dtype=object),
        *(np.array(c, dtype=np.int64) for c in cols[1:4]),
        *(np.array(c, dtype=np.float64) for c in cols[4:9]),
        np.array(cols[9], dtype=object),
        np.array(cols[10], dtype=np.bool_),
    ]


def lenient_cluster_columns(
    key: str, rows: Sequence[str]
) -> tuple[list[np.ndarray] | None, int]:
    """One key group's value rows with malformed rows dropped: (the
    columns, or None when no row survives; how many rows were dropped)."""
    try:
        return cluster_columns(rows, key), 0
    except ValueError:
        pass
    records = []
    for row in rows:
        try:
            records.append(strict_row(f"{key},{row}", CLUSTER_FIELDS, "cluster line"))
        except ValueError:
            pass
    n_bad = len(rows) - len(records)
    return (cluster_record_columns(records) if records else None), n_bad


# ---------------------------------------------------------------------------
# ML rows ↔ PulseBatch columns
# ---------------------------------------------------------------------------
_N_META = 6  # observation_key, cluster_id, spe_start, spe_stop, source, is_rrat
#: Numeric ML-row fields: cluster_id, spe_start, spe_stop, is_rrat, features.
_ML_NUM_COLS = (1, 2, 3, 5) + tuple(range(_N_META, _N_META + N_FEATURES))
_ML_DTYPE = np.dtype([("meta", np.int64, 4), ("f", np.float64, N_FEATURES)])


def _feature_strings(features: np.ndarray) -> list[list[str]]:
    """Per-column shortest-exact reprs, memoized over repeated values.

    Cluster-level features (StartTime, ClusterRank, NumPeaks, ...) are
    constant across every pulse of a cluster, so real batches repeat
    values heavily; formatting each distinct bit pattern once skips most
    ``repr`` calls.  Uniqueness is computed on the raw int64 bit patterns
    so ``-0.0``/``0.0`` (equal as floats, different as text) stay distinct.
    """
    n = len(features)
    cols: list[list[str]] = []
    for col in np.ascontiguousarray(features.T):
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        # Memoize whenever ≥20% of the values are repeats: below that
        # the unique/gather overhead roughly cancels the saved reprs.
        if bits.size * 5 <= n * 4:
            reprs = np.array(list(map(repr, bits.view(np.float64).tolist())),
                             dtype=object)
            cols.append(reprs[inverse].tolist())
        else:
            cols.append(list(map(repr, col.tolist())))
    return cols


def ml_rows(
    keys: np.ndarray, cluster_id: np.ndarray, spe_start: np.ndarray,
    spe_stop: np.ndarray, source: np.ndarray, is_rrat: np.ndarray,
    features: np.ndarray,
) -> list[str]:
    """ML-file rows, one per pulse; a None source is written empty."""
    if not len(keys):
        return []
    src = np.where(source == None, "", source)  # noqa: E711
    meta = [keys.tolist()] + [
        list(map(str, c.tolist())) for c in (cluster_id, spe_start, spe_stop)
    ] + [src.tolist(), np.where(is_rrat, "1", "0").tolist()]
    return list(map(",".join, zip(*meta, *_feature_strings(features))))


def ml_columns(
    lines: Sequence[str],
    *,
    source: str | None = None,
    linenos: Sequence[int] | None = None,
) -> list[np.ndarray]:
    """Strict parse of non-empty ML rows into the seven PulseBatch columns."""
    # Key and source are strings, split off per row; p[5] is the
    # "is_rrat,f0,...,f21" numeric tail, whose comma count guards against a
    # stray comma shifting columns within a row.
    parts = [line.rstrip("\n").split(",", _N_META - 1) for line in lines]
    table = None
    if all(len(p) == _N_META and p[5].count(",") == N_FEATURES for p in parts):
        table = tokenise(lines, _ML_DTYPE, usecols=_ML_NUM_COLS)
    if table is None:
        rows = _strict_rows(lines, ML_FIELDS, "ML row", source, linenos)
        cols = list(zip(*rows))
        return [
            np.array(cols[0], dtype=object),
            *(np.array(c, dtype=np.int64) for c in cols[1:4]),
            np.array(cols[4], dtype=object),
            np.array(cols[5], dtype=np.bool_),
            np.array([row[_N_META:] for row in rows], dtype=np.float64),
        ]
    meta = table["meta"]
    return [
        np.array([p[0] for p in parts], dtype=object),
        *(np.ascontiguousarray(c) for c in meta[:, :3].T),
        np.array([p[4] or None for p in parts], dtype=object),
        meta[:, 3] != 0,
        np.ascontiguousarray(table["f"]),
    ]
