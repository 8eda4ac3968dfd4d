"""The csv file formats D-RAPID exchanges through the DFS.

Two inputs (Section 5.1.1):

- **data file** — every SPE of the data set:
  ``key,DM,Sigma,Time_s,Sample,Downfact`` where ``key`` is the shared
  descriptive prefix ``dataset|MJD|sky|beam``;
- **cluster file** — one row per DBSCAN cluster to search:
  ``key,cluster_id,rank,n_spes,dm_lo,dm_hi,t_lo,t_hi,max_snr,source,is_rrat``.

The trailing ``source``/``is_rrat`` columns carry benchmark ground truth so
identified pulses can be labeled for supervised learning; production runs
leave them empty (D-RAPID itself never reads them during the search).

One output:

- **ML file** — one row per identified single pulse
  (:meth:`repro.dataplane.PulseBatch.to_ml_lines`), later aggregated into
  the classification benchmark.

Since the columnar refactor, whole files are built and parsed through the
batch types (:class:`repro.dataplane.SPEBatch` /
:class:`~repro.dataplane.ClusterBatch` / :class:`~repro.dataplane.PulseBatch`)
rather than row at a time; the record-at-a-time builders are test oracles
(``tests/oracles/record_path.py``).  Parse errors raise
:class:`repro.dataplane.MalformedRowError` naming the file and 1-based
line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.astro.spe import SPE_FILE_HEADER
from repro.dataplane import ClusterBatch, MalformedRowError, PulseBatch, SPEBatch
from repro.dataplane._columns import CLUSTER_FIELDS, data_lines, strict_row

if TYPE_CHECKING:  # pragma: no cover
    from repro.astro.dispersion import DMGrid
    from repro.astro.survey import Observation
    from repro.dfs import DFSClient

CLUSTER_FILE_HEADER = (
    "# key,cluster_id,rank,n_spes,dm_lo,dm_hi,t_lo,t_hi,max_snr,source,is_rrat"
)


@dataclass(frozen=True)
class ClusterRecord:
    """One cluster-file row (the unit of work D-RAPID distributes)."""

    key: str
    cluster_id: int
    rank: int
    n_spes: int
    dm_lo: float
    dm_hi: float
    t_lo: float
    t_hi: float
    max_snr: float
    source: str | None = None
    is_rrat: bool = False

    def to_line(self) -> str:
        return (
            f"{self.key},{self.cluster_id},{self.rank},{self.n_spes},"
            f"{self.dm_lo:.3f},{self.dm_hi:.3f},{self.t_lo:.6f},{self.t_hi:.6f},"
            f"{self.max_snr:.3f},{self.source or ''},{int(self.is_rrat)}"
        )


def parse_cluster_line(
    line: str, source: str | None = None, lineno: int | None = None
) -> ClusterRecord:
    """Parse one cluster-file row.

    ``source``/``lineno``, when given, are included in the error so a bad
    row can be located in the file it came from.  The rule itself is the
    codec's (``CLUSTER_FIELDS`` in :mod:`repro.dataplane._columns`).
    """
    return ClusterRecord(*strict_row(line, CLUSTER_FIELDS, "cluster line", source, lineno))


def observation_cluster_batch(obs: "Observation") -> ClusterBatch:
    """One observation's clusters (with ground truth) as a ClusterBatch."""
    clusters = obs.clusters
    n = len(clusters)
    if n == 0:
        return ClusterBatch.empty()
    key = obs.key.to_key()
    truth = [obs.cluster_truth.get(c.cluster_id, (None, False)) for c in clusters]
    return ClusterBatch(
        np.full(n, key, dtype=object),
        np.array([c.cluster_id for c in clusters], dtype=np.int64),
        np.array([c.rank for c in clusters], dtype=np.int64),
        np.array([c.size for c in clusters], dtype=np.int64),
        np.array([c.dm_lo for c in clusters], dtype=np.float64),
        np.array([c.dm_hi for c in clusters], dtype=np.float64),
        np.array([c.t_lo for c in clusters], dtype=np.float64),
        np.array([c.t_hi for c in clusters], dtype=np.float64),
        np.array([c.max_snr for c in clusters], dtype=np.float64),
        np.array([name for name, _r in truth], dtype=object),
        np.array([r for _name, r in truth], dtype=np.bool_),
    )


def build_data_file(observations: Iterable["Observation"]) -> str:
    """Concatenate every observation's SPEs into one data-file text.

    Each observation's rows come from one ``%`` template with its key baked
    in (:meth:`SPEBatch.to_data_csv`); byte-identical to the
    record-at-a-time oracle.
    """
    chunks = [SPE_FILE_HEADER + "\n"]
    for obs in observations:
        chunks.append(obs.spe_batch.to_data_csv(obs.key.to_key()))
    return "".join(chunks)


def build_cluster_file(observations: Iterable["Observation"]) -> str:
    """One row per cluster, with benchmark ground truth attached.

    Serialized through :class:`ClusterBatch` (one ``%`` template for every
    row); byte-identical to the record-at-a-time oracle.
    """
    lines = [CLUSTER_FILE_HEADER]
    for obs in observations:
        lines.extend(observation_cluster_batch(obs).to_lines())
    return "\n".join(lines) + "\n"


def parse_data_file(text: str, source: str | None = None) -> dict[str, SPEBatch]:
    """Strictly parse a whole data file into per-key SPE batches.

    Keys appear in first-seen order.  Bad rows raise
    :class:`MalformedRowError` with ``source`` and the 1-based line number.
    """
    lines, linenos = data_lines(text)
    rows_by_key: dict[str, list[str]] = {}
    nums_by_key: dict[str, list[int]] = {}
    for line, num in zip(lines, linenos):
        key, sep, rest = line.partition(",")
        if not sep:
            raise MalformedRowError(
                f"malformed SPE line (no key prefix): {line!r}", source, num
            )
        rows_by_key.setdefault(key, []).append(rest)
        nums_by_key.setdefault(key, []).append(num)
    return {
        key: SPEBatch.from_csv_rows(rows, source=source, linenos=nums_by_key[key])
        for key, rows in rows_by_key.items()
    }


def parse_cluster_file(text: str, source: str | None = None) -> ClusterBatch:
    """Strictly parse a whole cluster file into one ClusterBatch."""
    lines, linenos = data_lines(text)
    return ClusterBatch.from_lines(lines, source=source, linenos=linenos)


def require_unique_keys(observations: Iterable["Observation"]) -> None:
    """Refuse two observations under one key.

    Every row of the D-RAPID files and of the stream carries its
    observation's key, and the search groups rows by it: two observations
    under one key would merge, so each box of either would search the SPEs
    of both.  A re-processed pointing must come with its own key.
    """
    seen: set[str] = set()
    for obs in observations:
        key = obs.key.to_key()
        if key in seen:
            raise ValueError(
                f"duplicate observation key {key!r}: two observations under one "
                "key would be merged into one"
            )
        seen.add(key)


def dataset_grids(observations: Iterable["Observation"]) -> dict[str, "DMGrid"]:
    """The trial-DM ladder D-RAPID searches each dataset on, keyed by the
    ``dataset`` field of the observations' own keys.

    The data file carries no ladder, so one dataset has one: two
    observations under one dataset with unequal grids are refused, the same
    rule as :func:`require_unique_keys`.
    """
    grids: dict[str, DMGrid] = {}
    for obs in observations:
        dataset = obs.key.dataset
        grid = grids.setdefault(dataset, obs.grid)
        if grid != obs.grid:
            raise ValueError(
                f"dataset {dataset!r} has two trial-DM grids ({grid!r} and "
                f"{obs.grid!r}): one dataset is searched on one ladder"
            )
    return grids


def upload_observations(
    dfs: "DFSClient",
    observations: list["Observation"],
    data_path: str = "/surveys/data.csv",
    cluster_path: str = "/surveys/clusters.csv",
) -> tuple[str, str]:
    """Write both D-RAPID input files to the DFS; returns their paths."""
    dfs.put_text(data_path, build_data_file(observations))
    dfs.put_text(cluster_path, build_cluster_file(observations))
    return data_path, cluster_path


def read_ml_batch(dfs: "DFSClient", prefix: str) -> PulseBatch:
    """Aggregate stage-3 ML output files into one PulseBatch (stage 4).

    Each part file parses as one vectorized batch; a malformed row raises
    :class:`MalformedRowError` naming the part file and line number.
    """
    batches: list[PulseBatch] = []
    for path in dfs.ls(prefix):
        lines, linenos = data_lines(dfs.get_text(path))
        if lines:
            batches.append(
                PulseBatch.from_ml_lines(lines, source=path, linenos=linenos)
            )
    return PulseBatch.concat(batches)
