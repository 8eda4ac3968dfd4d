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
The text boundary is the data plane's codec (:mod:`repro.dataplane._columns`):
a partition is grouped by key once, header and blank lines skipped on the
way, and each key group is parsed in one tokeniser call.  The Search phase
body hands all of a partition's joined observations — their SPE columns
and cluster boxes, each tagged with its observation's index — to one
:func:`repro.core.rapid.search_columns` call, which searches the clusters
as columns (one Algorithm 1 + feature call per padded block of cluster
sizes) rather than looping over clusters or observations.  What the search
stage caches is one :class:`PulseBatch` per partition, not its text: the
ML part file is formatted from it once, and the run's result and
diagnostics are read off the same cached records.  The per-record dataflow
is a test oracle (``tests/oracles/record_path.py``) and the equivalence
suite asserts both produce byte-identical ML files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.astro.dispersion import DMGrid
from repro.core.rapid import search_columns
from repro.core.search import SearchParams
from repro.dataplane import ClusterBatch, PulseBatch, SPEBatch
from repro.dataplane._columns import key_groups, lenient_cluster_columns
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


def _parse_data_partition(lines: Iterator[str]) -> Iterator[tuple[str, SPEBatch]]:
    """One map partition of the data file → per-key SPE batches.

    Grouping before parsing keeps key first-occurrence order and per-key
    row order identical to the per-row oracle dataflow, so downstream
    aggregation sees the same sequences.
    """
    for key, rows in key_groups(lines).items():
        yield key, SPEBatch.from_data_rows(rows)


def _search_partition(
    joined: Iterator[tuple[str, tuple[list[ClusterBatch], list[SPEBatch] | None]]],
    grids: dict[str, DMGrid],
    params: SearchParams,
) -> list[tuple[PulseBatch, int, int]]:
    """The Search phase body: Algorithm 1 on each cluster's SPE subset, one
    columnar call over all of a partition's joined observations.

    Returns what the stage caches, one record per partition: ``(pulses,
    clusters searched for, observations whose SPE side of the join was
    null)``.
    """
    keys, spe_batches, cluster_batches = [], [], []
    spe_obs, box_obs = [], []
    n_clusters = n_null = 0
    for key, (clusters, spes) in joined:
        n_clusters += sum(len(b) for b in clusters)
        if spes is None:  # null from the left outer join
            n_null += 1
            continue
        spe_obs += [len(keys)] * len(spes)
        box_obs += [len(keys)] * len(clusters)
        keys.append(key)
        spe_batches += spes
        cluster_batches += clusters
    if not keys:
        return [(PulseBatch.empty(), n_clusters, n_null)]
    spe = SPEBatch.concat(spe_batches)
    pulses = search_columns(
        spe.time_s, spe.dm, spe.snr,
        np.repeat(spe_obs, [len(b) for b in spe_batches]),
        ClusterBatch.concat(cluster_batches),
        np.repeat(box_obs, [len(b) for b in cluster_batches]),
        [grids.get(key.split("|", 1)[0]) for key in keys], keys, params,
    )
    return [(pulses, n_clusters, n_null)]


def _ml_partition(searched: Iterator[tuple[PulseBatch, int, int]]) -> list[str]:
    """One partition's ML rows, formatted from its cached batch."""
    return [line for pulses, _n, _null in searched for line in pulses.to_ml_lines()]


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
        # partition groups its rows by key and parses each key group in one
        # tokeniser call, so what shuffles is a handful of array payloads
        # per partition, not one tuple per SPE.
        data_kvp = self.ctx.text_file(self.dfs, data_path).map_partitions(
            _parse_data_partition
        )

        # Stage 2: the cluster file → per-key ClusterBatch chunks.
        # Malformed rows are dropped and counted through an accumulator
        # (retried task attempts count once): the tokeniser covers the
        # clean case, and a per-row fallback isolates bad rows with the
        # same keep/drop rule as the per-record oracle.
        dropped = self.ctx.accumulator(0)

        def parse_cluster_partition(
            lines: Iterator[str],
        ) -> Iterator[tuple[str, ClusterBatch]]:
            for key, rows in key_groups(lines).items():
                columns, n_bad = lenient_cluster_columns(key, rows)
                if n_bad:
                    dropped.add(n_bad)
                if columns is not None:
                    yield key, ClusterBatch(*columns)

        cluster_kvp = self.ctx.text_file(self.dfs, cluster_path).map_partitions(
            parse_cluster_partition
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

        searched = joined.map_partitions(
            lambda kvs: _search_partition(kvs, grids, params)
        ).cache()
        obs = self.ctx.obs
        with obs.tracer.span("drapid.production_job", output=ml_output_path):
            searched.map_partitions(_ml_partition).save_as_text_file(
                self.dfs, ml_output_path
            )

        # Snapshot metrics and the dropped-row count now: the save above is
        # the production job (what Fig. 4 times); the collect below is a
        # driver-side diagnostic that reads the cached search records.
        metrics = self.ctx.all_job_metrics()
        n_dropped = int(dropped.value)

        with obs.tracer.span("drapid.diagnostics"):
            records = searched.collect()
        # What the part files just written parse back as, bit for bit.
        pulse_batch = PulseBatch.concat([p for p, _n, _null in records]).read_back()
        n_clusters = sum(n for _p, n, _null in records)
        null_joins = sum(null for _p, _n, null in records)

        return DRapidResult(
            pulse_batch=pulse_batch,
            ml_output_path=ml_output_path,
            metrics=metrics,
            n_clusters=n_clusters,
            n_null_joins=null_joins,
            n_dropped_cluster_rows=n_dropped,
        )
