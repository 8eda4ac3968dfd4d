"""DFS client: the user-facing put/get API and replica placement."""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

from repro.dfs.blocks import DEFAULT_BLOCK_SIZE, Block, BlockId, split_into_blocks
from repro.dfs.datanode import DataNode
from repro.dfs.namenode import NameNode
from repro.obs import events as obs_events
from repro.obs.session import ObsSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import ObsConfig


class DFSError(RuntimeError):
    """Generic DFS failure (a block with no readable replica)."""


class FileNotFoundInDFS(DFSError):
    """Requested path does not exist in the namespace."""


class DFSClient:
    """Front door to a simulated DFS cluster.

    Every datanode is live for the client's lifetime: the model is the
    block/locality map D-RAPID's copartitioned join needs, not a failure
    model (fault behaviour is Sparklet's chaos law, on real tasks).

    Parameters
    ----------
    datanodes:
        The storage nodes.  A block gets ``min(replication, len(datanodes))``
        replicas.
    replication:
        Replica count per block (HDFS default is 3).
    block_size:
        Chunking granularity in bytes.
    seed:
        Seeds the placement RNG so tests are deterministic.
    obs:
        Optional :class:`~repro.obs.ObsConfig` or shared
        :class:`~repro.obs.ObsSession`; puts and deletes land in its
        event log.
    """

    def __init__(
        self,
        datanodes: Sequence[DataNode],
        replication: int = 3,
        block_size: int = DEFAULT_BLOCK_SIZE,
        seed: int | None = 0,
        obs: "ObsConfig | ObsSession | None" = None,
    ) -> None:
        if not datanodes:
            raise ValueError("need at least one datanode")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.obs = ObsSession.from_config(obs)
        self.namenode = NameNode()
        self._nodes: dict[str, DataNode] = {}
        for node in datanodes:
            if node.node_id in self._nodes:
                raise ValueError(f"duplicate datanode id {node.node_id!r}")
            self._nodes[node.node_id] = node
        self.replication = replication
        self.block_size = block_size
        self._rng = random.Random(seed)

    # -- helpers --------------------------------------------------------------
    def _place_block(self) -> list[str]:
        """Replica targets, emptiest node first."""
        candidates = list(self._nodes.values())
        # Shuffle before the stable sort so ties break randomly, spreading
        # blocks instead of piling onto the first node.
        self._rng.shuffle(candidates)
        candidates.sort(key=lambda n: n.used_bytes)
        return [n.node_id for n in candidates]

    # -- public API -------------------------------------------------------------
    def put(self, path: str, payload: bytes) -> None:
        """Write ``payload`` at ``path``, chunked and replicated."""
        blocks = split_into_blocks(path, payload, self.block_size)
        effective = min(self.replication, len(self._nodes))
        # Raises FileExistsError before any replica is stored.
        self.namenode.create_file(path, len(payload), [b.block_id for b in blocks])
        for block in blocks:
            for node_id in self._place_block()[:effective]:
                self._nodes[node_id].store(block)
                self.namenode.add_replica(block.block_id, node_id)
        if self.obs.enabled:
            self.obs.emit(obs_events.DFS_PUT, path=path, n_bytes=len(payload),
                          n_blocks=len(blocks), replication=effective)

    def put_text(self, path: str, text: str) -> None:
        self.put(path, text.encode("utf-8"))

    def get(self, path: str) -> bytes:
        """Read a whole file, trying each replica of each block in turn."""
        if not self.namenode.exists(path):
            raise FileNotFoundInDFS(path)
        entry = self.namenode.get_file(path)
        out = bytearray()
        for bid in entry.block_ids:
            out.extend(self._read_block(bid).data)
        return bytes(out)

    def get_text(self, path: str) -> str:
        return self.get(path).decode("utf-8")

    def _read_block(self, block_id: BlockId) -> Block:
        replicas = sorted(self.namenode.replicas_of(block_id))
        self._rng.shuffle(replicas)
        for node_id in replicas:
            node = self._nodes[node_id]
            if node.has(block_id):
                return node.read(block_id)
        raise DFSError(f"all replicas of {block_id} unavailable")

    def read_block(self, block_id: BlockId) -> bytes:
        """Public single-block read (used by Sparklet input splits)."""
        return self._read_block(block_id).data

    def delete(self, path: str) -> None:
        entry = self.namenode.get_file(path)
        for bid in entry.block_ids:
            for node_id in self.namenode.replicas_of(bid):
                self._nodes[node_id].drop(bid)
        self.namenode.delete_file(path)
        if self.obs.enabled:
            self.obs.emit(obs_events.DFS_DELETE, path=path,
                          n_blocks=len(entry.block_ids))

    def ls(self, prefix: str = "") -> list[str]:
        return self.namenode.list_files(prefix)

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    # -- locality (consumed by the Sparklet scheduler) ----------------------
    def block_locations(self, path: str) -> list[tuple[BlockId, set[str]]]:
        entry = self.namenode.get_file(path)
        return [(bid, self.namenode.replicas_of(bid)) for bid in entry.block_ids]

    def total_stored_bytes(self) -> int:
        return sum(n.used_bytes for n in self._nodes.values())
