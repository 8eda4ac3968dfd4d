"""Shuffle manager: map-side bucket storage and reduce-side fetch.

Buckets are keyed by ``(shuffle id, reduce partition, map partition)`` so
that fault recovery can invalidate and regenerate the output of a *single*
map task idempotently: re-running a map partition overwrites its previous
buckets instead of appending, and reducers fetch buckets in sorted
map-partition order, so a recomputed shuffle yields byte-identical reduce
inputs no matter which partitions were re-run or in what order — the
property the chaos suite asserts end-to-end.
"""

from __future__ import annotations

from typing import Any

from repro.sparklet.metrics import estimate_bytes


class ShuffleManager:
    """Stores map-output buckets keyed by (shuffle, reduce, map) partition.

    Real Spark writes buckets to local disk and serves them over the network;
    here buckets live in driver memory, and the byte volumes recorded are fed
    to the cluster simulator, which charges network/disk time for them.
    """

    def __init__(self) -> None:
        # shuffle_id -> reduce_partition -> map_partition -> (records, nbytes)
        self._buckets: dict[int, dict[int, dict[int, tuple[list[Any], int]]]] = {}
        #: Next auto map key per (shuffle, reduce) for callers that do not
        #: name a map partition (direct-use tests); auto keys keep append
        #: order and must not be mixed with explicit map partitions.
        self._auto_keys: dict[tuple[int, int], int] = {}

    def write(
        self,
        shuffle_id: int,
        reduce_partition: int,
        records: list[Any],
        nbytes: int | None = None,
        map_partition: int | None = None,
    ) -> int:
        """Store map-output records for one reducer; returns bytes written.

        ``nbytes`` lets the caller supply a size estimate (e.g. task-level
        average × record count); estimating per bucket would pickle samples
        once per (task, reducer) pair and dominate small-task runtimes.
        ``map_partition`` identifies the producing map task; writing the same
        (shuffle, reduce, map) triple again *replaces* the earlier bucket,
        which is what makes lineage-driven map re-execution idempotent.
        """
        if not records:
            return 0
        if nbytes is None:
            nbytes = estimate_bytes(records)
        if map_partition is None:
            key = (shuffle_id, reduce_partition)
            map_partition = self._auto_keys.get(key, 0)
            self._auto_keys[key] = map_partition + 1
        reducers = self._buckets.setdefault(shuffle_id, {})
        reducers.setdefault(reduce_partition, {})[map_partition] = (list(records), nbytes)
        return nbytes

    def fetch(self, shuffle_id: int, reduce_partition: int) -> list[Any]:
        """All records destined for one reducer, in map-partition order."""
        buckets = self._buckets.get(shuffle_id, {}).get(reduce_partition)
        if not buckets:
            return []
        out: list[Any] = []
        for map_partition in sorted(buckets):
            out.extend(buckets[map_partition][0])
        return out

    def fetch_bytes(self, shuffle_id: int, reduce_partition: int) -> int:
        buckets = self._buckets.get(shuffle_id, {}).get(reduce_partition)
        if not buckets:
            return 0
        return sum(nbytes for _records, nbytes in buckets.values())

    def has_shuffle(self, shuffle_id: int) -> bool:
        return bool(self._buckets.get(shuffle_id))

    # -- fault recovery ----------------------------------------------------
    def invalidate_map_output(self, shuffle_id: int, map_partition: int) -> None:
        """Drop one map task's buckets (its executor died)."""
        for buckets in self._buckets.get(shuffle_id, {}).values():
            buckets.pop(map_partition, None)

    def invalidate_shuffle(self, shuffle_id: int) -> None:
        """Drop every bucket of a shuffle (fetch failure → full re-run)."""
        self._buckets.pop(shuffle_id, None)
        for key in [k for k in self._auto_keys if k[0] == shuffle_id]:
            del self._auto_keys[key]

    def clear(self) -> None:
        self._buckets.clear()
        self._auto_keys.clear()
