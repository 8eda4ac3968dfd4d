"""Name node: file metadata and block→replica placement map."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dfs.blocks import BlockId


@dataclass
class FileEntry:
    """Metadata for one file: ordered block ids and total size."""

    path: str
    size: int
    block_ids: list[BlockId] = field(default_factory=list)


class NameNode:
    """Tracks which files exist, their blocks, and where replicas live.

    The name node holds *no* payload — only the mapping used by clients (and
    by the Sparklet scheduler for locality-aware task placement).
    """

    def __init__(self) -> None:
        self._files: dict[str, FileEntry] = {}
        # block id -> set of datanode ids holding a replica
        self._locations: dict[BlockId, set[str]] = {}

    # -- namespace ----------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def create_file(self, path: str, size: int, block_ids: list[BlockId]) -> FileEntry:
        if path in self._files:
            raise FileExistsError(f"DFS path already exists: {path}")
        entry = FileEntry(path=path, size=size, block_ids=list(block_ids))
        self._files[path] = entry
        for bid in block_ids:
            self._locations.setdefault(bid, set())
        return entry

    def delete_file(self, path: str) -> FileEntry:
        entry = self._files.pop(path, None)
        if entry is None:
            raise FileNotFoundError(f"no such DFS path: {path}")
        for bid in entry.block_ids:
            self._locations.pop(bid, None)
        return entry

    def get_file(self, path: str) -> FileEntry:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(f"no such DFS path: {path}") from None

    def list_files(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    # -- replica tracking -----------------------------------------------------
    def add_replica(self, block_id: BlockId, node_id: str) -> None:
        self._locations.setdefault(block_id, set()).add(node_id)

    def replicas_of(self, block_id: BlockId) -> set[str]:
        return set(self._locations.get(block_id, set()))

    # -- introspection -------------------------------------------------------
    def summary(self) -> dict[str, int]:
        """Namespace counts for observability reports (no payload data)."""
        return {
            "n_files": len(self._files),
            "n_blocks": len(self._locations),
            "n_replicas": sum(len(nodes) for nodes in self._locations.values()),
        }
