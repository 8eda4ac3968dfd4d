"""Stateful cross-batch clustering: pending clusters and watermarks.

A cluster's DM×time box routinely straddles micro-batch boundaries — its
rows arrive over several batches, and its announcement (the cluster-file
row, event-timed at its last member's arrival) may land batches after its
first row.  This module carries that in-flight work as **pending state**:

- per key, a buffer of raw data-file rows (in arrival order, which equals
  stable-by-time data-file order — the receiver guarantees it);
- per key, the pending cluster announcements;
- per key, a **watermark** = the event time of the last ingested item.
  The receiver replays items in non-decreasing event time, so once the
  watermark *strictly* exceeds a cluster's ``t_hi`` every row the cluster's
  box can select has arrived (strict, because more rows may share the
  watermark's exact timestamp).  A key close finalizes everything left and
  frees the buffer.

Finalization emits one :class:`FinalizedUnit` per key per batch: the due
cluster lines plus the buffered rows inside the union of their boxes.
Rows are *not* consumed — overlapping boxes may claim the same row in a
later batch — so buffers are only freed at key close.  The engine turns
units into mini D-RAPID input files; because each cluster's box selects
exactly the same row subset (same formatted text, same relative order) as
it would from the full offline data file, and the RAPID search canonicalizes
each cluster by a (dm, time) lexsort, per-cluster output is byte-identical
to the offline run's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.dataplane._columns import data_columns
from repro.streaming.receiver import CLOSE, CLUSTER, DATA, StreamItem


@dataclass(frozen=True)
class FinalizedUnit:
    """One key's work finalized in one batch: clusters plus their rows."""

    key: str
    #: Cluster-file lines (with key prefix), in announcement order.
    cluster_lines: tuple[str, ...]
    #: Data-file lines (with key prefix) inside the union of the clusters'
    #: boxes, in buffer (= stable event-time) order.
    data_lines: tuple[str, ...]
    #: Batch that ingested the earliest selected row — ``finalized_batch -
    #: first_row_batch + 1`` is how many micro-batches the unit spanned.
    first_row_batch: int
    finalized_batch: int

    @property
    def n_batches_spanned(self) -> int:
        return self.finalized_batch - self.first_row_batch + 1


class _KeyState:
    """Pending state for one observation key."""

    __slots__ = ("rows", "batch_ids", "pending", "watermark", "closed")

    def __init__(self) -> None:
        self.rows: list[str] = []          # value rows (no key prefix)
        self.batch_ids: list[int] = []     # batch that ingested each row
        self.pending: list[tuple[float, str]] = []  # (t_hi, full cluster line)
        self.watermark = float("-inf")
        self.closed = False


class StreamState:
    """All keys' pending state; the unit the engine checkpoints."""

    def __init__(self) -> None:
        self._keys: dict[str, _KeyState] = {}

    # -- introspection ------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not self._keys

    @property
    def n_pending_clusters(self) -> int:
        return sum(len(ks.pending) for ks in self._keys.values())

    @property
    def n_buffered_rows(self) -> int:
        return sum(len(ks.rows) for ks in self._keys.values())

    def watermarks(self) -> dict[str, float]:
        return {key: ks.watermark for key, ks in self._keys.items()}

    # -- ingest -------------------------------------------------------------
    def ingest(self, batch_id: int, items: Iterable[StreamItem]) -> dict[str, float]:
        """Fold one batch's items into the state.

        Returns the watermark per key touched by this batch (for the
        ``watermark_advanced`` events).
        """
        touched: dict[str, float] = {}
        for item in items:
            ks = self._keys.get(item.key)
            if ks is None:
                ks = self._keys[item.key] = _KeyState()
            if item.kind == DATA:
                ks.rows.append(item.payload)
                ks.batch_ids.append(batch_id)
                ks.watermark = item.time_s
                touched[item.key] = item.time_s
            elif item.kind == CLUSTER:
                ks.pending.append((item.time_s, item.payload))
                ks.watermark = item.time_s
                touched[item.key] = item.time_s
            elif item.kind == CLOSE:
                ks.closed = True
                touched.setdefault(item.key, ks.watermark)
            else:  # pragma: no cover - receiver only emits the three kinds
                raise ValueError(f"unknown stream item kind {item.kind!r}")
        return touched

    # -- finalize -----------------------------------------------------------
    def finalize(self, batch_id: int) -> list[FinalizedUnit]:
        """Seal every cluster the watermark (or a key close) has passed.

        A cluster is due when ``watermark > t_hi`` strictly — rows equal to
        the watermark's timestamp may still be in flight — or when its key
        closed.  Closed keys with nothing pending are dropped entirely,
        freeing their row buffers (per-key memory is bounded by one
        observation).
        """
        units: list[FinalizedUnit] = []
        done_keys: list[str] = []
        for key, ks in self._keys.items():
            due = [(t, line) for t, line in ks.pending
                   if ks.closed or ks.watermark > t]
            if due:
                ks.pending = [p for p in ks.pending if p not in due]
                units.append(self._build_unit(key, ks, due, batch_id))
            if ks.closed and not ks.pending:
                done_keys.append(key)
        for key in done_keys:
            del self._keys[key]
        return units

    @staticmethod
    def _build_unit(
        key: str, ks: _KeyState, due: list[tuple[float, str]], batch_id: int
    ) -> FinalizedUnit:
        # ``kept`` maps parsed SPEs back to buffered rows: a row the parse
        # drops can never fall inside a box (the receiver drops them first).
        kept, (dm, _snr, time_s, _sample, _downfact) = data_columns(ks.rows)
        mask = np.zeros(kept.size, dtype=bool)
        for _t_hi, line in due:
            f = line.split(",")
            dm_lo, dm_hi = float(f[4]), float(f[5])
            t_lo, t_hi = float(f[6]), float(f[7])
            mask |= (dm >= dm_lo) & (dm <= dm_hi) & (time_s >= t_lo) & (time_s <= t_hi)
        idx = kept[mask]
        data_lines = tuple(f"{key},{ks.rows[i]}" for i in idx.tolist())
        first_batch = (min(ks.batch_ids[i] for i in idx.tolist())
                       if idx.size else batch_id)
        return FinalizedUnit(
            key=key,
            cluster_lines=tuple(line for _t, line in due),
            data_lines=data_lines,
            first_row_batch=first_batch,
            finalized_batch=batch_id,
        )

    # -- checkpoint ---------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "keys": [
                {
                    "key": key,
                    "rows": list(ks.rows),
                    "batch_ids": list(ks.batch_ids),
                    "pending": [[t, line] for t, line in ks.pending],
                    "watermark": ks.watermark,
                    "closed": ks.closed,
                }
                for key, ks in self._keys.items()
            ]
        }

    @classmethod
    def restore(cls, snap: dict) -> "StreamState":
        state = cls()
        for entry in snap["keys"]:
            ks = _KeyState()
            ks.rows = [str(r) for r in entry["rows"]]
            ks.batch_ids = [int(b) for b in entry["batch_ids"]]
            ks.pending = [(float(t), str(line)) for t, line in entry["pending"]]
            ks.watermark = float(entry["watermark"])
            ks.closed = bool(entry["closed"])
            state._keys[entry["key"]] = ks
        return state


__all__ = ["FinalizedUnit", "StreamState"]
