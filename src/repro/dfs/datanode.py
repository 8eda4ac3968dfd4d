"""Data node: block storage for the simulated DFS."""

from __future__ import annotations

from repro.dfs.blocks import Block, BlockId


class DataNode:
    """Stores block replicas and counts the bytes they take.

    ``used_bytes`` is what the client's emptiest-first placement sorts on.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self._blocks: dict[BlockId, Block] = {}
        self._used = 0
        #: Lifetime IO counters.
        self.n_reads = 0
        self.n_writes = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    # -- block operations -------------------------------------------------
    def store(self, block: Block) -> None:
        if block.block_id in self._blocks:
            return  # idempotent replica write
        self._blocks[block.block_id] = block
        self._used += block.size
        self.n_writes += 1

    def read(self, block_id: BlockId) -> Block:
        try:
            block = self._blocks[block_id]
        except KeyError:
            raise KeyError(f"datanode {self.node_id} has no block {block_id}") from None
        self.n_reads += 1
        return block

    def drop(self, block_id: BlockId) -> None:
        block = self._blocks.pop(block_id, None)
        if block is not None:
            self._used -= block.size

    def has(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def __repr__(self) -> str:  # pragma: no cover
        return f"DataNode({self.node_id!r}, blocks={len(self._blocks)}, used={self._used})"
