"""A block-based distributed file system simulation (HDFS stand-in).

The paper stores SPE data files and cluster files on HDFS, where a single
file is split into chunks, replicated, and spread over data nodes.  D-RAPID's
central trick — partition-aware joins so that cluster metadata and the SPE
data it refers to are colocated — only makes sense against a file system with
a block/locality model, which this package provides.  That model is all it
is: every datanode stays live and unbounded, so placement and reads are a
deterministic function of the seed and the call sequence.

Public API:

- :class:`~repro.dfs.namenode.NameNode` — metadata: file → blocks → replicas.
- :class:`~repro.dfs.datanode.DataNode` — block storage and byte counts.
- :class:`~repro.dfs.client.DFSClient` — put/get/ls/delete and
  emptiest-first replica placement.
- :class:`~repro.dfs.blocks.Block`, :class:`~repro.dfs.blocks.BlockId`.
"""

from repro.dfs.blocks import DEFAULT_BLOCK_SIZE, Block, BlockId
from repro.dfs.client import DFSClient, DFSError, FileNotFoundInDFS
from repro.dfs.datanode import DataNode
from repro.dfs.namenode import FileEntry, NameNode

__all__ = [
    "Block",
    "BlockId",
    "DEFAULT_BLOCK_SIZE",
    "DataNode",
    "DFSClient",
    "DFSError",
    "FileEntry",
    "FileNotFoundInDFS",
    "NameNode",
]
