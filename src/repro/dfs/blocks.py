"""Block primitives for the simulated distributed file system."""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default block size in bytes.  Real HDFS defaults to 128 MiB; the simulated
#: surveys are far smaller, so a small default keeps files multi-block (the
#: property the locality experiments need) without wasting memory.
DEFAULT_BLOCK_SIZE = 64 * 1024


@dataclass(frozen=True, order=True)
class BlockId:
    """Globally unique identifier of one block of one file."""

    path: str
    index: int

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.path}#{self.index}"


@dataclass
class Block:
    """One chunk of file payload.

    ``data`` is raw bytes; the DFS is content-agnostic.  ``size`` is kept
    explicitly so byte accounting works even if a caller truncates ``data``
    (tests exercise this).
    """

    block_id: BlockId
    data: bytes
    size: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.size < 0:
            self.size = len(self.data)

    def checksum(self) -> int:
        """Cheap rolling checksum used to detect corrupted replicas."""
        acc = 2166136261
        for b in self.data:
            acc = ((acc ^ b) * 16777619) & 0xFFFFFFFF
        return acc


def split_into_blocks(path: str, payload: bytes, block_size: int = DEFAULT_BLOCK_SIZE) -> list[Block]:
    """Chunk ``payload`` into consecutively indexed blocks.

    An empty payload still produces one (empty) block so that zero-byte files
    round-trip and have a location.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    if not payload:
        return [Block(BlockId(path, 0), b"")]
    return [
        Block(BlockId(path, i), payload[off : off + block_size])
        for i, off in enumerate(range(0, len(payload), block_size))
    ]
