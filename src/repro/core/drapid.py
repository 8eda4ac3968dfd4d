"""D-RAPID: the distributed driver (Fig. 3 of the paper).

Stages, exactly as published:

1. **Load** the SPE data file and the cluster file from the DFS, strip
   headers.
2. **Map to KVPRDD**: the key is the shared descriptive prefix
   (``dataset|MJD|sky|beam``); the value is the remainder of the row.
3. **Partition** both KVPRDDs with the *same* ``HashPartitioner`` so
   matching keys are colocated, **aggregate** by key to collapse the data
   file's massive key duplication before the join, then **left outer join**
   (clusters left, SPE data right) so every cluster arrives at its executor
   together with all the SPE data needed to search it.  **Search** each
   cluster with Algorithm 1 and write ML files back to the DFS.

Because both sides share the partitioner, the join is shuffle-free — the
cogroup dependencies are narrow.  That is D-RAPID's central optimization,
and a unit test asserts no extra shuffle stage is created.

Since the columnar refactor, each map partition parses its rows into
per-key :class:`SPEBatch` / :class:`ClusterBatch` chunks, so shuffle
payloads are a few large column buffers instead of one tuple per SPE row
(and the simulator's ``estimate_bytes`` measures them via ``.nbytes``).
The Search phase body hands one joined observation — its SPE columns and
all of its cluster boxes — to
:func:`repro.core.rapid.search_observation_columns`, which searches the
clusters as columns (one Algorithm 1 + feature call per cluster-size
group) rather than looping over them.  The per-record dataflow is a test
oracle (``tests/oracles/record_path.py``) and the
equivalence suite asserts both produce byte-identical ML files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.astro.dispersion import DMGrid
from repro.core.rapid import search_observation_columns
from repro.core.search import SearchParams
from repro.dataplane import ClusterBatch, PulseBatch, SPEBatch
from repro.io.spe_files import parse_cluster_line
from repro.sparklet.context import SparkletContext
from repro.sparklet.metrics import JobMetrics
from repro.sparklet.partitioner import HashPartitioner

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfs import DFSClient
    from repro.sparklet.faults import FaultConfig

#: The paper assigns 32 partitions per executor core (Section 6.1).
PARTITIONS_PER_CORE = 32


def paper_partitions(total_cores: int) -> int:
    """32 partitions per core, as in Section 6.1 (896 for 28 cores)."""
    return max(1, total_cores * PARTITIONS_PER_CORE)


@dataclass
class DRapidResult:
    """Output of one D-RAPID run."""

    pulse_batch: PulseBatch
    ml_output_path: str
    metrics: JobMetrics
    n_clusters: int = 0
    n_null_joins: int = 0
    #: Malformed cluster-file rows dropped during parsing (accumulator).
    n_dropped_cluster_rows: int = 0

    @property
    def n_pulses(self) -> int:
        return len(self.pulse_batch)


def _group_rows_by_key(lines: Iterable[str]) -> dict[str, list[str]]:
    """Group ``key,rest`` rows by key, keys in first-seen order."""
    by_key: dict[str, list[str]] = {}
    for line in lines:
        key, _, rest = line.partition(",")
        by_key.setdefault(key, []).append(rest)
    return by_key


def _parse_data_partition(lines: Iterator[str]) -> Iterator[tuple[str, SPEBatch]]:
    """One map partition of the data file → per-key SPE batches.

    Grouping before parsing keeps key first-occurrence order and per-key
    row order identical to the per-row oracle dataflow, so downstream
    aggregation sees the same sequences.
    """
    for key, rows in _group_rows_by_key(lines).items():
        yield key, SPEBatch.from_data_rows(rows)


def _search_observation_batch(
    key: str,
    cluster_batches: list[ClusterBatch],
    spe_batches: list[SPEBatch] | None,
    grids: dict[str, DMGrid],
    params: SearchParams,
) -> PulseBatch:
    """The Search phase body: Algorithm 1 on each cluster's SPE subset."""
    if spe_batches is None:
        return PulseBatch.empty()  # null from the left outer join
    spe = SPEBatch.concat(spe_batches)
    return search_observation_columns(
        spe.time_s, spe.dm, spe.snr, ClusterBatch.concat(cluster_batches),
        grids.get(key.split("|", 1)[0]), key, params,
    )


@dataclass
class DRapidDriver:
    """The Scala driver's Python analogue, parameterized like the paper."""

    ctx: SparkletContext
    dfs: "DFSClient"
    grids: dict[str, DMGrid] = field(default_factory=dict)
    params: SearchParams = field(default_factory=SearchParams)
    num_partitions: int = 16
    #: Optional chaos knob: arm the context's seeded fault injector before
    #: running, exercising lineage recovery during the production job.
    fault_config: "FaultConfig | None" = None

    def __post_init__(self) -> None:
        if self.fault_config is not None:
            self.ctx.install_faults(self.fault_config)

    @classmethod
    def with_paper_partitioning(
        cls,
        ctx: SparkletContext,
        dfs: "DFSClient",
        grids: dict[str, DMGrid],
        total_cores: int,
        params: SearchParams | None = None,
    ) -> "DRapidDriver":
        """A driver sized by :func:`paper_partitions`."""
        return cls(
            ctx=ctx,
            dfs=dfs,
            grids=grids,
            params=params or SearchParams(),
            num_partitions=paper_partitions(total_cores),
        )

    def run(
        self,
        data_path: str,
        cluster_path: str,
        ml_output_path: str = "/ml/out",
    ) -> DRapidResult:
        """The columnar dataflow: batches flow between Sparklet stages."""
        self.ctx.reset_metrics()
        partitioner = HashPartitioner(self.num_partitions)
        grids = self.grids
        params = self.params

        # Stage 1: the SPE data file → per-key SPEBatch chunks.  Each map
        # partition groups its rows by key and parses them into columns in
        # one vectorized pass, so what shuffles is a handful of array
        # payloads per partition, not one tuple per SPE.
        data_kvp = (
            self.ctx.text_file(self.dfs, data_path)
            .filter(lambda line: line and not line.startswith("#"))
            .map_partitions(_parse_data_partition)
        )

        # Stage 2: the cluster file → per-key ClusterBatch chunks.
        # Malformed rows are dropped and counted through an accumulator
        # (retried task attempts count once): the vectorized parse covers
        # the clean case, and a per-row fallback isolates bad rows with the
        # same keep/drop rule as the per-record oracle.
        dropped = self.ctx.accumulator(0)

        def parse_cluster_partition(
            lines: Iterator[str],
        ) -> Iterator[tuple[str, ClusterBatch]]:
            by_key: dict[str, list[str]] = {}
            for line in lines:
                by_key.setdefault(line.split(",", 1)[0], []).append(line)
            for key, rows in by_key.items():
                try:
                    batch = ClusterBatch.from_lines(rows)
                except ValueError:
                    records = []
                    n_bad = 0
                    for row in rows:
                        try:
                            records.append(parse_cluster_line(row))
                        except ValueError:
                            n_bad += 1
                    dropped.add(n_bad)
                    if not records:
                        continue
                    batch = ClusterBatch.from_records(records)
                yield key, batch

        cluster_kvp = (
            self.ctx.text_file(self.dfs, cluster_path)
            .filter(lambda line: line and not line.startswith("#"))
            .map_partitions(parse_cluster_partition)
        )

        # Stage 3: Partition → Aggregate → Left Outer Join → Search.
        def append(acc: list, v) -> list:
            acc.append(v)
            return acc

        def extend(a: list, b: list) -> list:
            a.extend(b)
            return a

        data_agg = data_kvp.partition_by(partitioner).aggregate_by_key(
            [], append, extend, partitioner=partitioner
        )
        cluster_agg = cluster_kvp.partition_by(partitioner).aggregate_by_key(
            [], append, extend, partitioner=partitioner
        )

        joined = cluster_agg.left_outer_join(data_agg, partitioner=partitioner)

        searched = joined.map(
            lambda kv: (
                kv[0],
                _search_observation_batch(kv[0], kv[1][0], kv[1][1], grids, params),
            )
        )

        ml_rows = searched.flat_map(lambda kv: kv[1].to_ml_lines()).cache()
        obs = self.ctx.obs
        with obs.tracer.span("drapid.production_job", output=ml_output_path):
            ml_rows.save_as_text_file(self.dfs, ml_output_path)

        # Snapshot metrics and the dropped-row count now: the save above is
        # the production job (what Fig. 4 times); the collect/counts below
        # are driver-side diagnostics that re-run the parse transformation,
        # and accumulator updates inside *transformations* re-apply on
        # recomputation (the same caveat Spark documents).
        metrics = self.ctx.all_job_metrics()
        n_dropped = int(dropped.value)

        with obs.tracer.span("drapid.diagnostics"):
            pulse_batch = PulseBatch.from_ml_lines(ml_rows.collect())
            null_joins = joined.filter(lambda kv: kv[1][1] is None).count()
            n_clusters = cluster_kvp.map(lambda kv: len(kv[1])).fold(
                0, lambda a, b: a + b
            )
        if obs.enabled:
            obs.registry.counter("drapid.pulses").inc(len(pulse_batch))
            obs.registry.counter("drapid.clusters").inc(n_clusters)

        return DRapidResult(
            pulse_batch=pulse_batch,
            ml_output_path=ml_output_path,
            metrics=metrics,
            n_clusters=n_clusters,
            n_null_joins=null_joins,
            n_dropped_cluster_rows=n_dropped,
        )
