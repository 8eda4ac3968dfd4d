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


class OneToOneDependency(Dependency):
    """Narrow dependency: child partition ``i`` reads parent partition ``i``."""


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
            if isinstance(dep, OneToOneDependency):
                locs = dep.rdd.preferred_locations(split)
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

    # ------------------------------------------------------------------
    # Transformations (lazy)
    # ------------------------------------------------------------------
    def map(self, f: Callable[[Any], Any]) -> "RDD":
        return MapPartitionsRDD(self, lambda it: map(f, it), name=f"map({self.name})")

    def filter(self, pred: Callable[[Any], bool]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda it: filter(pred, it),
            preserves_partitioning=True,
            name=f"filter({self.name})",
        )

    def flat_map(self, f: Callable[[Any], Iterable[Any]]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda it: itertools.chain.from_iterable(map(f, it)),
            name=f"flatMap({self.name})",
        )

    def map_partitions(
        self, f: Callable[[Iterator[Any]], Iterable[Any]], preserves_partitioning: bool = False
    ) -> "RDD":
        return MapPartitionsRDD(
            self, f, preserves_partitioning, name=f"mapPartitions({self.name})"
        )

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
            def combine_local(it: Iterator[Any]) -> Iterator[Any]:
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

    # ------------------------------------------------------------------
    # Actions (trigger execution)
    # ------------------------------------------------------------------
    def collect(self) -> list[Any]:
        results = self.ctx._run_job(self, lambda it: list(it))
        return [x for part in results for x in part]

    def count(self) -> int:
        return sum(self.ctx._run_job(self, lambda it: sum(1 for _ in it)))

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
    """Narrow transformation applying ``f(iterator)`` to each partition."""

    def __init__(
        self,
        parent: RDD,
        f: Callable[[Iterator[Any]], Iterable[Any]],
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
        return iter(self.f(self.parent.iterator(split, runtime)))


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
