"""Partitioners: deterministic key → partition placement.

Spark's ``HashPartitioner`` guarantees that two RDDs partitioned by equal
partitioners colocate equal keys, which lets joins skip the shuffle.  Python's
built-in ``hash`` is randomized per process for strings, so we use a stable
FNV-1a based hash — results must not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Any


def portable_hash(key: Any) -> int:
    """Process-stable hash for the key types Sparklet supports.

    Handles ``None``, bools, ints, floats, strings, bytes and (nested) tuples
    of those.  Strings/bytes use FNV-1a; tuples combine element hashes the way
    CPython does, but built on the stable leaf hashes.
    """
    if key is None:
        return 0
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key
    if isinstance(key, float):
        if key == int(key):  # match int/float hash equality semantics
            return int(key)
        return hash(key)  # float hashing is not seed-randomized
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        acc = 2166136261
        for b in key:
            acc = ((acc ^ b) * 16777619) & 0xFFFFFFFF
        return acc
    if isinstance(key, tuple):
        acc = 0x345678
        mult = 1000003
        for item in key:
            acc = ((acc ^ portable_hash(item)) * mult) & 0xFFFFFFFF
            mult = (mult + 82520 + 2 * len(key)) & 0xFFFFFFFF
        return acc + 97531
    raise TypeError(f"unhashable/unsupported key type for portable_hash: {type(key)!r}")


class Partitioner:
    """Maps keys to partition indices in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition_for(self, key: Any) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    # Partitioner equality is what enables shuffle-free joins.
    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:  # pragma: no cover
        return hash((type(self).__name__, self.num_partitions))

    def memo_token(self) -> str:
        """Identity for lineage hashing (see :mod:`repro.memo.hashing`) —
        only the placement-relevant config, never internal caches."""
        return f"part:{type(self).__name__}:{self.num_partitions}"


class HashPartitioner(Partitioner):
    """``portable_hash(key) mod n`` — Spark's default partitioner.

    Assignments are memoized: dataset keys repeat massively (every SPE row
    of an observation shares one key), and the JVM caches String hash codes
    where pure-Python FNV would be recomputed per record.
    """

    def __init__(self, num_partitions: int) -> None:
        super().__init__(num_partitions)
        self._memo: dict[Any, int] = {}

    def partition_for(self, key: Any) -> int:
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        p = portable_hash(key) % self.num_partitions
        if len(memo) < 200_000:
            memo[key] = p
        return p

    # The memo is a cache, not identity: equality still rests on type+config.
    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.num_partitions == other.num_partitions  # type: ignore[union-attr]

    def __hash__(self) -> int:  # pragma: no cover
        return hash(("HashPartitioner", self.num_partitions))
