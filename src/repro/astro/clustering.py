"""Customized DBSCAN for single-pulse event clustering (stage 2 of Fig. 2).

Implements the clustering of Pang et al. (2017) as the paper describes it:
density-based clustering of SPEs in the DM-vs-time plane, with two
radio-astronomy customizations:

1. **anisotropic scaling** — the time axis is measured in seconds and the DM
   axis in *ladder steps* (trial indices), because DMSpacing varies by two
   orders of magnitude across the ladder; clustering raw DM values would
   fragment high-DM pulses and fuse low-DM ones;
2. **cluster merging** — one physical pulse can be split into several
   apparent clusters by processing artifacts (e.g., the event list being
   chunked in time, or dropouts at specific trial DMs).  A post-pass merges
   clusters that are adjacent in time and overlap in DM extent.

DBSCAN's labels are a function of the data alone, so no sweep computes them:
points are sorted by grid cell, every unordered close pair is enumerated once
in fixed-size blocks (:data:`_PAIR_CANDIDATES`), one pass counts neighbours
(core points), a second unions core–core pairs by root hooking, and border
points take the lowest cluster id among their core neighbours.  Memory is
O(n + block).  The textbook sweep is the oracle the labels are tested
bit-identical against (``tests/oracles/frontend.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataplane import SPEBatch

NOISE = -1


@dataclass
class Cluster:
    """A cluster of SPE indices with summary statistics.

    ``n_spes`` persists the member count across CSV round-trips: a cluster
    parsed from disk has no ``indices`` (they are not serialized), so
    :attr:`size` falls back to the persisted count.
    """

    cluster_id: int
    indices: list[int]
    dm_lo: float
    dm_hi: float
    t_lo: float
    t_hi: float
    max_snr: float
    #: 1-based SNR rank among clusters of the same observation (ClusterRank).
    rank: int = 0
    #: Persisted member count (used when ``indices`` is empty).
    n_spes: int = 0

    @property
    def size(self) -> int:
        return len(self.indices) if self.indices else self.n_spes

    def to_csv_row(self) -> str:
        return (
            f"{self.cluster_id},{self.size},{self.dm_lo:.3f},{self.dm_hi:.3f},"
            f"{self.t_lo:.6f},{self.t_hi:.6f},{self.max_snr:.3f}"
        )

    @classmethod
    def from_csv_row(cls, row: str) -> "Cluster":
        p = row.strip().split(",")
        if len(p) != 7:
            raise ValueError(f"malformed cluster row: {row!r}")
        return cls(
            cluster_id=int(p[0]),
            indices=[],
            dm_lo=float(p[2]),
            dm_hi=float(p[3]),
            t_lo=float(p[4]),
            t_hi=float(p[5]),
            max_snr=float(p[6]),
            n_spes=int(p[1]),
        )


#: Candidate pairs tested per block of the pair passes.  It bounds every
#: temporary, so memory is O(n + block) however dense the input.  A pipeline
#: is at its RSS high-water when clustering runs, so transients add to the
#: peak: this is the largest budget that left it flat (1 << 17 added 7%, and
#: larger blocks were no faster; EXPERIMENTS.md, "DBSCAN: where the time went").
_PAIR_CANDIDATES = 1 << 15


def _require_finite(name: str, values: np.ndarray) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise ValueError(
            f"{name} has {bad.size} non-finite value(s); first at index {bad[0]}"
        )


def _cell_ranks(v: np.ndarray) -> np.ndarray:
    """Unit-cell index of each coordinate, rank-compressed.

    Adjacent occupied cells keep ranks one apart and any wider gap becomes
    two, so a rank never exceeds 2n and the combined cell key cannot
    overflow, however far apart the points lie.
    """
    occupied, inverse = np.unique(np.floor(v), return_inverse=True)
    step = np.where(occupied[1:] == occupied[:-1] + 1.0, 1, 2)
    return np.concatenate([[0], np.cumsum(step)])[inverse]


def _close_pairs(xs, ys, src, first, length):
    """Yield ``(a, b)``, the pairs within unit distance, one block at a time.

    Segment ``s`` offers point ``src[s]`` the candidates at positions
    ``first[s] .. first[s] + length[s]``.  The candidate lists are walked as
    one flat range cut every :data:`_PAIR_CANDIDATES`, so a block's
    temporaries are all that is ever held.
    """
    ends = np.cumsum(length)
    total = int(ends[-1])
    for lo in range(0, total, _PAIR_CANDIDATES):
        hi = min(lo + _PAIR_CANDIDATES, total)
        s0 = np.searchsorted(ends, lo, side="right")
        s1 = np.searchsorted(ends, hi - 1, side="right") + 1
        seg_start = ends[s0:s1] - length[s0:s1]
        taken = np.minimum(ends[s0:s1], hi) - np.maximum(seg_start, lo)
        a = np.repeat(src[s0:s1], taken)
        b = np.arange(lo, hi) + np.repeat(first[s0:s1] - seg_start, taken)
        close = (xs[b] - xs[a]) ** 2 + (ys[b] - ys[a]) ** 2 <= 1.0
        yield a[close], b[close]


def _roots(comp: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Roots of ``idx`` in the forest ``comp``; the paths are written back."""
    root = comp[idx]
    while True:
        up = comp[root]
        if np.array_equal(up, root):
            break
        root = up
    comp[idx] = root
    return root


def _hook(comp: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Union the pairs ``(a, b)``: larger root under smaller until none differ.

    A root is therefore always the lowest index of its component.
    """
    while a.size:
        ra, rb = _roots(comp, a), _roots(comp, b)
        differ = ra != rb
        a, b = np.maximum(ra, rb)[differ], np.minimum(ra, rb)[differ]
        np.minimum.at(comp, a, b)


@dataclass
class SinglePulseDBSCAN:
    """DBSCAN over (time, DM-step) with artifact-merging post-pass.

    Parameters
    ----------
    eps_time_s:
        Neighbourhood radius along time, seconds.
    eps_dm_steps:
        Neighbourhood radius along DM, in ladder-step units.
    min_samples:
        Core-point density threshold (DBSCAN ``minPts``).
    merge_gap_s / merge overlap:
        Two clusters merge when their time gap is below ``merge_gap_s`` and
        their DM extents overlap.
    """

    eps_time_s: float = 0.1
    eps_dm_steps: float = 4.0
    min_samples: int = 4
    merge_gap_s: float = 0.25

    def __post_init__(self) -> None:
        if not self.eps_time_s > 0:
            raise ValueError(f"eps_time_s must be positive, got {self.eps_time_s}")
        if not self.eps_dm_steps > 0:
            raise ValueError(f"eps_dm_steps must be positive, got {self.eps_dm_steps}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be at least 1, got {self.min_samples}")
        if not self.merge_gap_s >= 0:
            raise ValueError(f"merge_gap_s must be non-negative, got {self.merge_gap_s}")

    def fit(
        self, times: np.ndarray, dms: np.ndarray, snrs: np.ndarray, dm_steps: np.ndarray
    ) -> tuple[np.ndarray, list[Cluster]]:
        """Cluster events; return (labels, clusters).

        ``dm_steps`` gives each event's DM expressed in ladder-step index
        units (``dm / spacing_at(dm)`` works when spacing is locally uniform).
        Labels are cluster ids or :data:`NOISE`.
        """
        times = np.asarray(times, dtype=float)
        dms = np.asarray(dms, dtype=float)
        snrs = np.asarray(snrs, dtype=float)
        dm_steps = np.asarray(dm_steps, dtype=float)
        n = times.size
        if not (dms.size == snrs.size == dm_steps.size == n):
            raise ValueError("times, dms, snrs, dm_steps must have equal length")
        if n == 0:
            return np.empty(0, dtype=int), []
        # Scale both axes to unit neighbourhood radius; a finite coordinate
        # over a tiny eps can still overflow, so the scaled ones are checked too.
        with np.errstate(over="ignore"):
            x = times / self.eps_time_s
            y = dm_steps / self.eps_dm_steps
        for name, column in (
            ("times", times), ("dms", dms), ("snrs", snrs), ("dm_steps", dm_steps),
            ("times / eps_time_s", x), ("dm_steps / eps_dm_steps", y),
        ):
            _require_finite(name, column)
        labels = self._dbscan(x, y)
        labels = self._merge_artifact_clusters(labels, times, dms)
        clusters = self._summarize(labels, times, dms, snrs)
        return labels, clusters

    def fit_batch(
        self, batch: "SPEBatch", dm_steps: np.ndarray
    ) -> tuple[np.ndarray, list[Cluster]]:
        """Columnar entry point: cluster an :class:`SPEBatch` directly.

        The batch's columns feed :meth:`fit` with no per-record
        materialization.
        """
        return self.fit(batch.time_s, batch.dm, batch.snr, dm_steps)

    # -- DBSCAN core ---------------------------------------------------------
    def _dbscan(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The sweep's labels without the sweep.

        Clusters are the components of the core–core graph, numbered by
        their lowest core index (the order the sweep opens them in); a
        non-core point takes the lowest id among its core neighbours (the
        first cluster to reach it); everything else is noise.
        """
        n = x.size
        if n == 0:
            return np.empty(0, dtype=int)
        ry = _cell_ranks(y)
        # +3 keeps (cx, cy±1) one contiguous key range even at the cy edges.
        ny = int(ry.max()) + 3
        key = _cell_ranks(x) * ny + ry
        order = np.argsort(key, kind="stable")
        key, xs, ys = key[order], x[order], y[order]

        # Each unordered pair once: point p meets the rest of its own
        # column's three cells (positions after p) and all three of the next.
        pos = np.arange(n)
        own_hi = np.searchsorted(key, key + 1, side="right")
        next_lo = np.searchsorted(key, key + (ny - 1), side="left")
        next_hi = np.searchsorted(key, key + (ny + 1), side="right")
        src = np.repeat(pos, 2)
        first = np.column_stack([pos + 1, next_lo]).ravel()
        length = np.column_stack([own_hi - pos - 1, next_hi - next_lo]).ravel()

        count = np.ones(n, dtype=np.intp)  # a point neighbours itself
        for a, b in _close_pairs(xs, ys, src, first, length):
            count += np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
        core = count >= self.min_samples

        comp = np.arange(n)  # over original indices, so roots order clusters
        for a, b in _close_pairs(xs, ys, src, first, length):
            both = core[a] & core[b]
            _hook(comp, order[a[both]], order[b[both]])
        opened, cluster = np.unique(_roots(comp, order[core]), return_inverse=True)
        lab = np.full(n, opened.size)
        lab[core] = cluster

        border = np.flatnonzero(~core)
        if border.size and opened.size:
            cols = key[border][:, None] + np.array([-ny, 0, ny])
            first = np.searchsorted(key, (cols - 1).ravel(), side="left")
            last = np.searchsorted(key, (cols + 1).ravel(), side="right")
            for a, b in _close_pairs(xs, ys, np.repeat(border, 3), first, last - first):
                reach = core[b]
                np.minimum.at(lab, a[reach], lab[b[reach]])
        lab[lab == opened.size] = NOISE
        labels = np.empty(n, dtype=int)
        labels[order] = lab
        return labels

    # -- artifact merging ------------------------------------------------------
    def _merge_artifact_clusters(
        self, labels: np.ndarray, times: np.ndarray, dms: np.ndarray
    ) -> np.ndarray:
        """Union clusters that nearly touch in time and overlap in DM."""
        members, starts = _groups(labels)
        k = starts.size
        if k < 2:
            return labels
        t_lo, t_hi = _bounds(times, members, starts)
        dm_lo, dm_hi = _bounds(dms, members, starts)
        ordered = np.argsort(t_lo, kind="stable").tolist()
        t_lo, t_hi, dm_lo, dm_hi = t_lo.tolist(), t_hi.tolist(), dm_lo.tolist(), dm_hi.tolist()

        parent = list(range(k))

        def find(c: int) -> int:
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        for a_pos, a in enumerate(ordered):
            for b_pos in range(a_pos + 1, k):
                b = ordered[b_pos]
                if t_lo[b] - t_hi[a] > self.merge_gap_s:
                    break  # sorted by start time; nothing later can touch
                dm_overlap = min(dm_hi[a], dm_hi[b]) - max(dm_lo[a], dm_lo[b])
                if dm_overlap >= 0:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[rb] = ra
        dense_of_root = np.unique([find(c) for c in range(k)], return_inverse=True)[1]
        # Single-pass dense relabel: group g's members take its root's rank.
        out = labels.copy()
        out[members] = np.repeat(dense_of_root, np.diff(starts, append=members.size))
        return out

    # -- summaries --------------------------------------------------------------
    def _summarize(
        self, labels: np.ndarray, times: np.ndarray, dms: np.ndarray, snrs: np.ndarray
    ) -> list[Cluster]:
        members, starts = _groups(labels)
        if members.size == 0:
            return []
        ids = labels[members[starts]].tolist()
        dm_lo, dm_hi = _bounds(dms, members, starts)
        t_lo, t_hi = _bounds(times, members, starts)
        max_snr = np.maximum.reduceat(snrs[members], starts)
        # ClusterRank: 1 = brightest cluster in the observation, ties in id order.
        rank = np.empty(starts.size, dtype=np.int64)
        rank[np.argsort(-max_snr, kind="stable")] = np.arange(1, starts.size + 1)
        flat = members.tolist()
        ends = starts.tolist()[1:] + [members.size]
        return [
            Cluster(cid, flat[s:e], lo_dm, hi_dm, lo_t, hi_t, snr, rank=r)
            for cid, s, e, lo_dm, hi_dm, lo_t, hi_t, snr, r in zip(
                ids, starts.tolist(), ends, dm_lo.tolist(), dm_hi.tolist(),
                t_lo.tolist(), t_hi.tolist(), max_snr.tolist(), rank.tolist(),
            )
        ]


def _groups(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clustered points grouped by label: ``(members, starts)``.

    ``members`` lists the indices of non-noise points, ascending label
    first and index second (one stable argsort); group ``g`` is
    ``members[starts[g]:starts[g + 1]]``.
    """
    valid = np.flatnonzero(labels != NOISE)
    vlab = labels[valid]
    order = np.argsort(vlab, kind="stable")
    vlab = vlab[order]
    return valid[order], np.flatnonzero(np.diff(vlab, prepend=vlab[:1] - 1))


def _bounds(
    values: np.ndarray, members: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group ``(min, max)`` of ``values`` (exact: one reduceat each)."""
    grouped = values[members]
    return np.minimum.reduceat(grouped, starts), np.maximum.reduceat(grouped, starts)
