"""File formats exchanged between pipeline stages (Fig. 2)."""

from repro.io.spe_files import (
    ClusterRecord,
    build_cluster_file,
    build_data_file,
    observation_cluster_batch,
    parse_cluster_file,
    parse_cluster_line,
    parse_data_file,
    read_ml_batch,
    upload_observations,
)

__all__ = [
    "ClusterRecord",
    "build_cluster_file",
    "build_data_file",
    "observation_cluster_batch",
    "parse_cluster_file",
    "parse_cluster_line",
    "parse_data_file",
    "read_ml_batch",
    "upload_observations",
]
