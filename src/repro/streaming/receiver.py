"""Deterministic replay receivers: an SPE source as timestamped blocks.

Spark Streaming's receivers pull records from an external source and chop
them into *blocks* (spark.streaming.blockInterval); the block queue is what
the batch scheduler drains.  Our source is a finished observation set, so
the receiver *replays* it on a simulated clock: every data-file row and
every cluster-file row becomes one stream item carrying an **event time**
(the SPE arrival time; for a cluster, the time its last member arrived —
the moment an upstream online clusterer would have closed it).

Two properties carry the streamed≡offline equivalence proof:

- items replay the *formatted* file rows (``%.3f``/``%.6f``), so the
  floats the streamed search parses are bit-identical to the offline ones;
- per key, items are sorted by event time with a **stable** sort, so rows
  sharing an event time keep their data-file order — and since the RAPID
  search lexsorts each cluster by (dm, time), per-cluster output is then
  independent of how the stream is cut into blocks and batches.

Ingestion is rate-limited: :meth:`ReplayReceiver.poll` grants
``rate × interval`` rows per block with fractional credit carried between
polls, so a rate limit produces the same block boundaries on every run —
and after a checkpoint restore (the cursor and credit are the entire
receiver state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.dataplane._columns import data_row

if TYPE_CHECKING:  # pragma: no cover
    from repro.astro.survey import Observation

#: Stream item kinds, in tie-break order at equal event time: data rows
#: land before the cluster that closes on them, closes come last.
DATA, CLUSTER, CLOSE = "data", "cluster", "close"


@dataclass(frozen=True)
class StreamItem:
    """One replayed row: a data-file row, a cluster-file row, or a key close."""

    kind: str
    key: str
    payload: str | None
    #: Event time (seconds into the observation); None for key closes.
    time_s: float | None


@dataclass(frozen=True)
class Block:
    """One receiver block: what arrived during one block interval."""

    block_id: int
    #: Simulated arrival time of the block (end of its block interval).
    time_s: float
    items: tuple[StreamItem, ...]

    @property
    def n_rows(self) -> int:
        """Billable rows (data + cluster items; key closes are free)."""
        return sum(1 for it in self.items if it.kind != CLOSE)


def build_stream(observations: Iterable["Observation"]) -> list[StreamItem]:
    """Flatten observations into one replayable, time-ordered item list.

    Observations replay sequentially (a drift scan observes one pointing at
    a time); within each, data rows and cluster announcements merge by
    event time with the stable tie order data < cluster.  Each observation
    ends with a :data:`CLOSE` item — the signal that lets the state layer
    finalize stragglers and free the key's row buffer.  Two observations
    under one key are refused (:func:`repro.io.spe_files.require_unique_keys`).
    """
    from repro.io.spe_files import observation_cluster_batch, require_unique_keys

    observations = list(observations)
    require_unique_keys(observations)
    items: list[StreamItem] = []
    for obs in observations:
        key = obs.key.to_key()
        merged: list[tuple[float, int, StreamItem]] = []
        for row in obs.spe_batch.to_csv_rows():
            # The offline parse's keep-rule: a row it drops never streams.
            fields = data_row(row)
            if fields is None:
                continue
            t = fields[2]
            merged.append((t, 0, StreamItem(DATA, key, row, t)))
        for line in observation_cluster_batch(obs).to_lines():
            t_hi = float(line.split(",")[7])
            merged.append((t_hi, 1, StreamItem(CLUSTER, key, line, t_hi)))
        merged.sort(key=lambda e: (e[0], e[1]))  # stable: file order on ties
        items.extend(item for _, _, item in merged)
        items.append(StreamItem(CLOSE, key, None, None))
    return items


class ReplayReceiver:
    """Replays a prebuilt item stream as rate-limited blocks.

    The entire mutable state is ``(cursor, credit, n_blocks)`` — three
    scalars that checkpoint as JSON and restore a bit-identical replay.
    """

    def __init__(self, items: Sequence[StreamItem]) -> None:
        self._items = list(items)
        self.cursor = 0
        self.credit = 0.0
        self.n_blocks = 0

    @classmethod
    def from_observations(cls, observations: Iterable["Observation"]) -> "ReplayReceiver":
        return cls(build_stream(observations))

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self._items)

    def poll(self, *, time_s: float, interval_s: float, rate_rows_per_s: float) -> Block:
        """Cut the next block: up to ``rate × interval`` rows arrive.

        Fractional row credit carries over (a 7.5 rows/interval limit
        alternates 7- and 8-row blocks deterministically).  CLOSE items ride
        along for free right behind their observation's last row.
        """
        self.credit += max(0.0, rate_rows_per_s) * interval_s
        budget = int(self.credit)
        self.credit -= budget
        taken: list[StreamItem] = []
        while self.cursor < len(self._items):
            item = self._items[self.cursor]
            if item.kind == CLOSE:
                taken.append(item)
                self.cursor += 1
                continue
            if budget <= 0:
                break
            taken.append(item)
            budget -= 1
            self.cursor += 1
        block = Block(self.n_blocks, time_s, tuple(taken))
        self.n_blocks += 1
        return block

    # -- checkpoint ---------------------------------------------------------
    def snapshot(self) -> dict:
        return {"cursor": self.cursor, "credit": self.credit, "n_blocks": self.n_blocks}

    def restore(self, snap: dict) -> None:
        self.cursor = int(snap["cursor"])
        self.credit = float(snap["credit"])
        self.n_blocks = int(snap["n_blocks"])


__all__ = [
    "Block",
    "ReplayReceiver",
    "StreamItem",
    "build_stream",
    "CLOSE",
    "CLUSTER",
    "DATA",
]
