"""RDD: lazy, partitioned, lineage-tracked collections.

The API mirrors the subset of Apache Spark used by D-RAPID (Fig. 3 of the
paper): textFile → map to key-value pairs → partitionBy(HashPartitioner) →
aggregateByKey → leftOuterJoin → map (search) → saveAsTextFile.

Transformations are lazy: they only record lineage.  Actions hand the final
RDD to the scheduler (:mod:`repro.sparklet.scheduler`), which splits lineage
into stages at shuffle boundaries and executes tasks, recording cost metrics.

Pair operations treat records as 2-tuples ``(key, value)``; this is checked
lazily at execution time, matching Spark's duck-typed PairRDD semantics.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.sparklet.partitioner import HashPartitioner, Partitioner

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfs import DFSClient
    from repro.sparklet.context import SparkletContext
    from repro.sparklet.scheduler import Runtime


# ---------------------------------------------------------------------------
# Dependencies
# ---------------------------------------------------------------------------
class Dependency:
    """Edge in the lineage graph."""

    def __init__(self, rdd: "RDD") -> None:
        self.rdd = rdd


class NarrowDependency(Dependency):
    """Child partition depends on a bounded set of parent partitions."""

    def parent_partitions(self, split: int) -> list[int]:
        raise NotImplementedError


class OneToOneDependency(NarrowDependency):
    def parent_partitions(self, split: int) -> list[int]:
        return [split]


class RangeDependency(NarrowDependency):
    """Used by union: child partitions [out_start, out_start+length) map to
    parent partitions [in_start, in_start+length)."""

    def __init__(self, rdd: "RDD", in_start: int, out_start: int, length: int) -> None:
        super().__init__(rdd)
        self.in_start = in_start
        self.out_start = out_start
        self.length = length

    def parent_partitions(self, split: int) -> list[int]:
        if self.out_start <= split < self.out_start + self.length:
            return [split - self.out_start + self.in_start]
        return []


class Aggregator:
    """Map/reduce-side combining logic for key-based shuffles."""

    def __init__(
        self,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
    ) -> None:
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners


class ShuffleDependency(Dependency):
    """Wide dependency: parent records are hash-distributed by key."""

    def __init__(
        self,
        rdd: "RDD",
        partitioner: Partitioner,
        shuffle_id: int,
        aggregator: Aggregator | None = None,
        map_side_combine: bool = False,
    ) -> None:
        super().__init__(rdd)
        self.partitioner = partitioner
        self.shuffle_id = shuffle_id
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine and aggregator is not None


# ---------------------------------------------------------------------------
# RDD base
# ---------------------------------------------------------------------------
class RDD:
    """Resilient Distributed Dataset (single-process, metered execution)."""

    def __init__(
        self,
        ctx: "SparkletContext",
        deps: Sequence[Dependency],
        num_partitions: int,
        partitioner: Partitioner | None = None,
        name: str = "rdd",
    ) -> None:
        self.ctx = ctx
        self.rdd_id = ctx._next_rdd_id()
        self.deps = list(deps)
        self.num_partitions = num_partitions
        self.partitioner = partitioner
        self.name = name
        self._cached = False

    def __getstate__(self) -> dict[str, Any]:
        """Drop the driver context when shipping lineage to a pool worker.

        Workers compute partitions purely from the lineage graph plus the
        runtime handed to ``compute``; the context (counters, obs session,
        metrics history) stays driver-side and must not be pickled.
        """
        state = self.__dict__.copy()
        state["ctx"] = None
        return state

    # -- to be provided by subclasses ------------------------------------
    def compute(self, split: int, runtime: "Runtime") -> Iterator[Any]:
        raise NotImplementedError

    def preferred_locations(self, split: int) -> tuple[str, ...]:
        """Node ids where this partition's input lives (locality hint)."""
        for dep in self.deps:
            if isinstance(dep, NarrowDependency):
                for parent_split in dep.parent_partitions(split):
                    locs = dep.rdd.preferred_locations(parent_split)
                    if locs:
                        return locs
        return ()

    # -- execution helper --------------------------------------------------
    def iterator(self, split: int, runtime: "Runtime") -> Iterator[Any]:
        """Compute (or fetch from cache) the records of one partition."""
        if self._cached:
            key = (self.rdd_id, split)
            hit = runtime.cache.get(key)
            if hit is not None:
                return iter(hit)
            data = list(self.compute(split, runtime))
            runtime.cache[key] = data
            return iter(data)
        return self.compute(split, runtime)

    def cache(self) -> "RDD":
        """Keep computed partitions in memory across jobs (Spark ``.cache()``)."""
        self._cached = True
        return self

    def unpersist(self) -> "RDD":
        self._cached = False
        self.ctx._evict_cache(self.rdd_id)
        return self

    # ------------------------------------------------------------------
    # Transformations (lazy)
    # ------------------------------------------------------------------
    def map(self, f: Callable[[Any], Any]) -> "RDD":
        return MapPartitionsRDD(self, lambda _s, it: map(f, it), name=f"map({self.name})")

    def filter(self, pred: Callable[[Any], bool]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _s, it: filter(pred, it),
            preserves_partitioning=True,
            name=f"filter({self.name})",
        )

    def flat_map(self, f: Callable[[Any], Iterable[Any]]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _s, it: itertools.chain.from_iterable(map(f, it)),
            name=f"flatMap({self.name})",
        )

    def map_partitions(
        self, f: Callable[[Iterator[Any]], Iterable[Any]], preserves_partitioning: bool = False
    ) -> "RDD":
        return MapPartitionsRDD(
            self, lambda _s, it: f(it), preserves_partitioning, name=f"mapPartitions({self.name})"
        )

    def map_partitions_with_index(
        self, f: Callable[[int, Iterator[Any]], Iterable[Any]], preserves_partitioning: bool = False
    ) -> "RDD":
        return MapPartitionsRDD(self, f, preserves_partitioning, name=f"mapPartitionsWithIndex({self.name})")

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        n = num_partitions or self.num_partitions
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, _b: a, num_partitions=n)
            .map(lambda kv: kv[0])
        )

    def key_by(self, f: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda x: (f(x), x))

    def glom(self) -> "RDD":
        """One list per partition (debug/test aid)."""
        return MapPartitionsRDD(self, lambda _s, it: iter([list(it)]), name=f"glom({self.name})")

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce the partition count *without* a shuffle (Spark semantics:
        consecutive input partitions are concatenated).  Increasing the
        count requires a shuffle — use :meth:`repartition`."""
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        if num_partitions >= self.num_partitions:
            return self
        return CoalescedRDD(self, num_partitions)

    def repartition(self, num_partitions: int) -> "RDD":
        """Redistribute records evenly over ``num_partitions`` (full shuffle)."""
        keyed = self.map_partitions_with_index(
            lambda split, it: ((split * 31 + i, x) for i, x in enumerate(it))
        )
        return keyed.partition_by(HashPartitioner(num_partitions)).map(lambda kv: kv[1])

    def zip_with_index(self) -> "RDD":
        """Pair each record with its global index (order-preserving)."""
        # Two-pass like Spark: count per partition, then offset locally.
        counts = self.ctx._run_job(self, lambda it: sum(1 for _ in it))
        offsets = [0]
        for c in counts[:-1]:
            offsets.append(offsets[-1] + c)

        def with_index(split: int, it: Iterator[Any]) -> Iterator[Any]:
            return ((x, offsets[split] + i) for i, x in enumerate(it))

        return MapPartitionsRDD(self, with_index, name=f"zipWithIndex({self.name})")

    def sample(self, fraction: float, seed: int = 0) -> "RDD":
        import random

        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")

        def sampler(split: int, it: Iterator[Any]) -> Iterator[Any]:
            rng = random.Random(seed * 1_000_003 + split)
            return (x for x in it if rng.random() < fraction)

        return MapPartitionsRDD(self, sampler, preserves_partitioning=True, name=f"sample({self.name})")

    # ------------------------------------------------------------------
    # Pair transformations (records must be (key, value) tuples)
    # ------------------------------------------------------------------
    def _default_partitioner(self, num_partitions: int | None) -> Partitioner:
        if num_partitions is None:
            if self.partitioner is not None:
                return self.partitioner
            num_partitions = self.num_partitions
        return HashPartitioner(num_partitions)

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Redistribute pairs so equal keys colocate (Fig. 3 "Partition" phase).

        If this RDD is already partitioned exactly this way the call is a
        no-op — that is the property D-RAPID exploits to make its join cheap.
        """
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner, aggregator=None, map_side_combine=False)

    def combine_by_key(
        self,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        num_partitions: int | None = None,
        partitioner: Partitioner | None = None,
        map_side_combine: bool = True,
    ) -> "RDD":
        part = partitioner or self._default_partitioner(num_partitions)
        agg = Aggregator(create_combiner, merge_value, merge_combiners)
        if self.partitioner == part:
            # Already partitioned: combine within partitions, no shuffle.
            def combine_local(_s: int, it: Iterator[Any]) -> Iterator[Any]:
                acc: dict[Any, Any] = {}
                for k, v in it:
                    acc[k] = merge_value(acc[k], v) if k in acc else create_combiner(v)
                return iter(acc.items())

            return MapPartitionsRDD(self, combine_local, preserves_partitioning=True,
                                    name=f"combineByKey({self.name})")
        return ShuffledRDD(self, part, aggregator=agg, map_side_combine=map_side_combine)

    def reduce_by_key(
        self,
        f: Callable[[Any, Any], Any],
        num_partitions: int | None = None,
        partitioner: Partitioner | None = None,
    ) -> "RDD":
        return self.combine_by_key(lambda v: v, f, f, num_partitions, partitioner)

    def aggregate_by_key(
        self,
        zero: Any,
        seq_func: Callable[[Any, Any], Any],
        comb_func: Callable[[Any, Any], Any],
        num_partitions: int | None = None,
        partitioner: Partitioner | None = None,
    ) -> "RDD":
        """Spark ``aggregateByKey`` — the Fig. 3 "Aggregate" phase uses this
        to collapse the many duplicate keys of the SPE csv before the join."""
        import copy

        def create(v: Any) -> Any:
            return seq_func(copy.deepcopy(zero), v)

        return self.combine_by_key(create, seq_func, comb_func, num_partitions, partitioner)

    def group_by_key(
        self, num_partitions: int | None = None, partitioner: Partitioner | None = None
    ) -> "RDD":
        def merge_value(acc: list, v: Any) -> list:
            acc.append(v)
            return acc

        def merge_combiners(a: list, b: list) -> list:
            a.extend(b)
            return a

        # Like Spark, groupByKey disables map-side combining: pre-grouping
        # values into lists saves no bytes, so every raw pair crosses the
        # shuffle (exactly why the paper's Aggregate phase uses
        # aggregateByKey instead).
        return self.combine_by_key(lambda v: [v], merge_value, merge_combiners,
                                   num_partitions, partitioner, map_side_combine=False)

    def map_values(self, f: Callable[[Any], Any]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _s, it: ((k, f(v)) for k, v in it),
            preserves_partitioning=True,
            name=f"mapValues({self.name})",
        )

    def flat_map_values(self, f: Callable[[Any], Iterable[Any]]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _s, it: ((k, out) for k, v in it for out in f(v)),
            preserves_partitioning=True,
            name=f"flatMapValues({self.name})",
        )

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def cogroup(self, other: "RDD", num_partitions: int | None = None,
                partitioner: Partitioner | None = None) -> "RDD":
        part = partitioner or self._default_partitioner(num_partitions)
        return CoGroupedRDD(self.ctx, [self, other], part)

    def join(self, other: "RDD", num_partitions: int | None = None,
             partitioner: Partitioner | None = None) -> "RDD":
        def emit(kv: tuple) -> Iterable[tuple]:
            k, (left, right) = kv
            return ((k, (lv, rv)) for lv in left for rv in right)

        return self.cogroup(other, num_partitions, partitioner).flat_map(emit)

    def left_outer_join(self, other: "RDD", num_partitions: int | None = None,
                        partitioner: Partitioner | None = None) -> "RDD":
        """Every left key appears; missing right side yields ``None``
        (the Fig. 3 "Left Outer Join" phase; nulls mark clusters whose SPE
        data went missing)."""

        def emit(kv: tuple) -> Iterable[tuple]:
            k, (left, right) = kv
            if right:
                return ((k, (lv, rv)) for lv in left for rv in right)
            return ((k, (lv, None)) for lv in left)

        return self.cogroup(other, num_partitions, partitioner).flat_map(emit)

    def right_outer_join(self, other: "RDD", num_partitions: int | None = None,
                         partitioner: Partitioner | None = None) -> "RDD":
        def emit(kv: tuple) -> Iterable[tuple]:
            k, (left, right) = kv
            if left:
                return ((k, (lv, rv)) for lv in left for rv in right)
            return ((k, (None, rv)) for rv in right)

        return self.cogroup(other, num_partitions, partitioner).flat_map(emit)

    def sort_by_key(self, ascending: bool = True, num_partitions: int | None = None) -> "RDD":
        from repro.sparklet.partitioner import RangePartitioner

        n = num_partitions or self.num_partitions
        sample_keys = [k for k, _v in self.sample(min(1.0, 2000 / max(1, n * 64)), seed=7).collect()]
        if not sample_keys:
            sample_keys = [k for k, _v in self.take(max(n, 1))]
        part = RangePartitioner.from_sample(sample_keys, n)
        shuffled = self.partition_by(part)

        def sort_part(_s: int, it: Iterator[Any]) -> Iterator[Any]:
            return iter(sorted(it, key=lambda kv: kv[0], reverse=not ascending))

        out = MapPartitionsRDD(shuffled, sort_part, preserves_partitioning=True,
                               name=f"sortByKey({self.name})")
        if not ascending:
            # Range partitions are ascending; reverse partition order at collect
            # time is not supported, so we keep ascending partitions and note it.
            pass
        return out

    # ------------------------------------------------------------------
    # Actions (trigger execution)
    # ------------------------------------------------------------------
    def collect(self) -> list[Any]:
        results = self.ctx._run_job(self, lambda it: list(it))
        return [x for part in results for x in part]

    def count(self) -> int:
        return sum(self.ctx._run_job(self, lambda it: sum(1 for _ in it)))

    def take(self, n: int) -> list[Any]:
        if n <= 0:
            return []
        out: list[Any] = []
        # Execute partition by partition until satisfied (cheap approximation
        # of Spark's incremental take).
        for split in range(self.num_partitions):
            part = self.ctx._run_job(self, lambda it: list(it), partitions=[split])[0]
            out.extend(part)
            if len(out) >= n:
                break
        return out[:n]

    def first(self) -> Any:
        got = self.take(1)
        if not got:
            raise ValueError("RDD is empty")
        return got[0]

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        import functools

        def reduce_part(it: Iterator[Any]) -> list[Any]:
            items = list(it)
            return [functools.reduce(f, items)] if items else []

        parts = [x for part in self.ctx._run_job(self, reduce_part) for x in part]
        if not parts:
            raise ValueError("reduce on empty RDD")
        return functools.reduce(f, parts)

    def fold(self, zero: Any, f: Callable[[Any, Any], Any]) -> Any:
        import functools

        parts = self.ctx._run_job(self, lambda it: functools.reduce(f, it, zero))
        return functools.reduce(f, parts, zero)

    def aggregate(self, zero: Any, seq_func: Callable, comb_func: Callable) -> Any:
        import copy
        import functools

        parts = self.ctx._run_job(
            self, lambda it: functools.reduce(seq_func, it, copy.deepcopy(zero))
        )
        return functools.reduce(comb_func, parts, copy.deepcopy(zero))

    def count_by_key(self) -> dict[Any, int]:
        out: dict[Any, int] = {}
        for k, n in self.map_values(lambda _v: 1).reduce_by_key(lambda a, b: a + b).collect():
            out[k] = n
        return out

    def foreach(self, f: Callable[[Any], None]) -> None:
        def run_part(it: Iterator[Any]) -> None:
            for x in it:
                f(x)

        # foreach exists for its side effects; replaying a memoized result
        # would skip them, so it always executes.
        self.ctx._run_job(self, run_part, memoize=False)

    def save_as_text_file(self, dfs: "DFSClient", path: str) -> None:
        """Write one ``part-NNNNN`` file per partition, like Spark on HDFS.

        Re-running a job over an existing output directory replaces it
        (Spark requires a fresh directory; replace semantics are friendlier
        for the repeated experiment runs this repo performs).
        """

        def to_text(it: Iterator[Any]) -> str:
            return "".join(f"{x}\n" for x in it)

        parts = self.ctx._run_job(self, to_text)
        for stale in dfs.ls(f"{path}/part-"):
            dfs.delete(stale)
        for idx, text in enumerate(parts):
            dfs.put_text(f"{path}/part-{idx:05d}", text)

    def take_ordered(self, n: int, key: Callable[[Any], Any] | None = None) -> list[Any]:
        """The n smallest records (by ``key``), computed with per-partition
        heaps then a final merge — Spark's ``takeOrdered``."""
        import heapq

        if n <= 0:
            return []
        parts = self.ctx._run_job(self, lambda it: heapq.nsmallest(n, it, key=key))
        return heapq.nsmallest(n, [x for part in parts for x in part], key=key)

    def to_debug_string(self) -> str:
        """Render the lineage tree, one line per RDD (Spark's toDebugString).

        Shuffle dependencies are marked with ``+-``; narrow chains indent
        under their child.
        """
        lines: list[str] = []

        def walk(node: "RDD", depth: int, via_shuffle: bool) -> None:
            marker = "+-" if via_shuffle else "| " if depth else ""
            lines.append(
                f"{'  ' * depth}{marker}({node.num_partitions}) {node.name} "
                f"[id={node.rdd_id}]"
            )
            for dep in node.deps:
                walk(dep.rdd, depth + 1, isinstance(dep, ShuffleDependency))

        walk(self, 0, False)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} id={self.rdd_id} name={self.name!r} parts={self.num_partitions}>"


# ---------------------------------------------------------------------------
# Concrete RDDs
# ---------------------------------------------------------------------------
class ParallelCollectionRDD(RDD):
    """An in-driver collection sliced into partitions."""

    def __init__(self, ctx: "SparkletContext", data: Sequence[Any], num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        super().__init__(ctx, deps=[], num_partitions=num_partitions, name="parallelize")
        data = list(data)
        n = len(data)
        self._slices: list[list[Any]] = []
        for i in range(num_partitions):
            start = (i * n) // num_partitions
            stop = ((i + 1) * n) // num_partitions
            self._slices.append(data[start:stop])

    def compute(self, split: int, runtime: "Runtime") -> Iterator[Any]:
        return iter(self._slices[split])


class _BlockSnapshot:
    """Pickle-time stand-in for the DFS client inside pool workers.

    Holds the raw bytes of every block a :class:`TextFileRDD` may read,
    as uint8 arrays so protocol-5 pickling ships them out-of-band through
    shared memory instead of through the pickle stream.
    """

    def __init__(self, blocks: dict[Any, Any]) -> None:
        self._blocks = blocks

    def read_block(self, block_id: Any) -> bytes:
        return self._blocks[block_id].tobytes()


class TextFileRDD(RDD):
    """Lines of a DFS file, one partition per block.

    Implements the classic input-split rule for records crossing block
    boundaries: every partition except the first skips to the first newline,
    and every partition finishes the line it started even if it runs into the
    next block — so each line is owned by exactly one partition.
    """

    def __init__(self, ctx: "SparkletContext", dfs: "DFSClient", path: str) -> None:
        self._locations = dfs.block_locations(path)
        super().__init__(ctx, deps=[], num_partitions=max(1, len(self._locations)),
                         name=f"textFile({path})")
        self.dfs = dfs
        self.path = path

    def preferred_locations(self, split: int) -> tuple[str, ...]:
        if split < len(self._locations):
            return tuple(sorted(self._locations[split][1]))
        return ()

    def __getstate__(self) -> dict[str, Any]:
        state = super().__getstate__()
        if not isinstance(self.dfs, _BlockSnapshot):
            import numpy as np

            state["dfs"] = _BlockSnapshot(
                {
                    bid: np.frombuffer(self.dfs.read_block(bid), dtype=np.uint8)
                    for bid, _locs in self._locations
                }
            )
        return state

    def compute(self, split: int, runtime: "Runtime") -> Iterator[Any]:
        blocks = self._locations
        data = self.dfs.read_block(blocks[split][0])
        start = 0
        if split > 0:
            prev = self.dfs.read_block(blocks[split - 1][0])
            if not prev.endswith(b"\n"):
                # The previous partition owns the line straddling the border.
                nl = data.find(b"\n")
                if nl < 0:
                    return iter(())  # entire block is the middle of one line
                start = nl + 1
        chunk = bytearray(data[start:])
        # Extend into following blocks until the final line terminates.
        nxt = split + 1
        while not chunk.endswith(b"\n") and nxt < len(blocks):
            cont = self.dfs.read_block(blocks[nxt][0])
            nl = cont.find(b"\n")
            if nl >= 0:
                chunk.extend(cont[: nl + 1])
                break
            chunk.extend(cont)
            nxt += 1
        text = chunk.decode("utf-8")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        return iter(lines)


class MapPartitionsRDD(RDD):
    """Narrow transformation applying ``f(split, iterator)``."""

    def __init__(
        self,
        parent: RDD,
        f: Callable[[int, Iterator[Any]], Iterable[Any]],
        preserves_partitioning: bool = False,
        name: str = "mapPartitions",
    ) -> None:
        super().__init__(
            parent.ctx,
            deps=[OneToOneDependency(parent)],
            num_partitions=parent.num_partitions,
            partitioner=parent.partitioner if preserves_partitioning else None,
            name=name,
        )
        self.parent = parent
        self.f = f

    def compute(self, split: int, runtime: "Runtime") -> Iterator[Any]:
        return iter(self.f(split, self.parent.iterator(split, runtime)))


class UnionRDD(RDD):
    def __init__(self, ctx: "SparkletContext", rdds: Sequence[RDD]) -> None:
        deps: list[Dependency] = []
        out_start = 0
        for rdd in rdds:
            deps.append(RangeDependency(rdd, 0, out_start, rdd.num_partitions))
            out_start += rdd.num_partitions
        super().__init__(ctx, deps=deps, num_partitions=out_start, name="union")
        self.rdds = list(rdds)

    def compute(self, split: int, runtime: "Runtime") -> Iterator[Any]:
        for dep in self.deps:
            assert isinstance(dep, RangeDependency)
            parents = dep.parent_partitions(split)
            if parents:
                return dep.rdd.iterator(parents[0], runtime)
        raise IndexError(f"partition {split} out of range for union")


class CoalescedRDD(RDD):
    """Concatenates groups of consecutive parent partitions (no shuffle)."""

    def __init__(self, parent: RDD, num_partitions: int) -> None:
        super().__init__(
            parent.ctx,
            deps=[OneToOneDependency(parent)],  # parent mapping handled below
            num_partitions=num_partitions,
            name=f"coalesce({parent.name})",
        )
        self.parent = parent
        n = parent.num_partitions
        self._groups = [
            list(range((i * n) // num_partitions, ((i + 1) * n) // num_partitions))
            for i in range(num_partitions)
        ]

    def compute(self, split: int, runtime: "Runtime") -> Iterator[Any]:
        return itertools.chain.from_iterable(
            self.parent.iterator(p, runtime) for p in self._groups[split]
        )

    def preferred_locations(self, split: int) -> tuple[str, ...]:
        locs: list[str] = []
        for p in self._groups[split]:
            locs.extend(self.parent.preferred_locations(p))
        return tuple(dict.fromkeys(locs))


class ShuffledRDD(RDD):
    """Output side of a shuffle; reads bucket files written by the map stage."""

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Aggregator | None,
        map_side_combine: bool,
    ) -> None:
        shuffle_id = parent.ctx._next_shuffle_id()
        dep = ShuffleDependency(parent, partitioner, shuffle_id, aggregator, map_side_combine)
        super().__init__(
            parent.ctx,
            deps=[dep],
            num_partitions=partitioner.num_partitions,
            partitioner=partitioner,
            name=f"shuffled({parent.name})",
        )
        self.shuffle_dep = dep

    def compute(self, split: int, runtime: "Runtime") -> Iterator[Any]:
        dep = self.shuffle_dep
        records = runtime.shuffle.fetch(dep.shuffle_id, split)
        if dep.aggregator is None:
            return iter(records)
        agg = dep.aggregator
        acc: dict[Any, Any] = {}
        if dep.map_side_combine:
            # Map side already produced combiners; merge combiners here.
            for k, c in records:
                acc[k] = agg.merge_combiners(acc[k], c) if k in acc else c
        else:
            for k, v in records:
                acc[k] = agg.merge_value(acc[k], v) if k in acc else agg.create_combiner(v)
        return iter(acc.items())


class CoGroupedRDD(RDD):
    """Groups values from several pair RDDs by key.

    For each parent the dependency is *narrow* when the parent is already
    partitioned by the target partitioner (D-RAPID arranges exactly this),
    otherwise a shuffle dependency is inserted.
    """

    def __init__(self, ctx: "SparkletContext", parents: Sequence[RDD], partitioner: Partitioner) -> None:
        deps: list[Dependency] = []
        for parent in parents:
            if parent.partitioner == partitioner:
                deps.append(OneToOneDependency(parent))
            else:
                deps.append(
                    ShuffleDependency(parent, partitioner, ctx._next_shuffle_id())
                )
        super().__init__(
            ctx,
            deps=deps,
            num_partitions=partitioner.num_partitions,
            partitioner=partitioner,
            name="cogroup",
        )
        self.parents = list(parents)

    def compute(self, split: int, runtime: "Runtime") -> Iterator[Any]:
        n = len(self.parents)
        grouped: dict[Any, tuple[list, ...]] = {}

        def slot(key: Any) -> tuple[list, ...]:
            entry = grouped.get(key)
            if entry is None:
                entry = tuple([] for _ in range(n))
                grouped[key] = entry
            return entry

        for i, dep in enumerate(self.deps):
            if isinstance(dep, ShuffleDependency):
                records: Iterable[Any] = runtime.shuffle.fetch(dep.shuffle_id, split)
            else:
                assert isinstance(dep, OneToOneDependency)
                records = dep.rdd.iterator(split, runtime)
            for k, v in records:
                slot(k)[i].append(v)
        return iter(grouped.items())
