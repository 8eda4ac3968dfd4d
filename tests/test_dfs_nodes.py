"""Unit tests for DataNode and NameNode."""

import pytest

from repro.dfs.blocks import Block, BlockId
from repro.dfs.datanode import DataNode
from repro.dfs.namenode import NameNode


def _block(path: str = "/f", idx: int = 0, size: int = 10) -> Block:
    return Block(BlockId(path, idx), b"z" * size)


class TestDataNode:
    def test_store_and_read(self):
        node = DataNode("n0")
        blk = _block()
        node.store(blk)
        assert node.read(blk.block_id).data == blk.data

    def test_store_is_idempotent(self):
        node = DataNode("n0")
        blk = _block(size=10)
        node.store(blk)
        node.store(blk)  # same replica again: no error, no double count
        assert node.used_bytes == 10

    def test_drop_frees_capacity(self):
        node = DataNode("n0")
        blk = _block(size=10)
        node.store(blk)
        node.drop(blk.block_id)
        assert node.used_bytes == 0 and not node.has(blk.block_id)
        node.store(_block(idx=1, size=10))
        assert node.used_bytes == 10

    def test_missing_block_raises_keyerror(self):
        node = DataNode("n0")
        with pytest.raises(KeyError):
            node.read(BlockId("/nope", 0))


class TestNameNode:
    def test_create_and_get(self):
        nn = NameNode()
        bids = [BlockId("/f", i) for i in range(3)]
        nn.create_file("/f", 300, bids)
        entry = nn.get_file("/f")
        assert entry.size == 300
        assert entry.block_ids == bids

    def test_duplicate_create_rejected(self):
        nn = NameNode()
        nn.create_file("/f", 1, [BlockId("/f", 0)])
        with pytest.raises(FileExistsError):
            nn.create_file("/f", 1, [BlockId("/f", 0)])

    def test_delete_removes_locations(self):
        nn = NameNode()
        bid = BlockId("/f", 0)
        nn.create_file("/f", 1, [bid])
        nn.add_replica(bid, "n0")
        nn.delete_file("/f")
        assert not nn.exists("/f")
        assert nn.replicas_of(bid) == set()

    def test_missing_file_raises(self):
        nn = NameNode()
        with pytest.raises(FileNotFoundError):
            nn.get_file("/missing")

    def test_replica_tracking(self):
        nn = NameNode()
        bid = BlockId("/f", 0)
        nn.create_file("/f", 1, [bid])
        nn.add_replica(bid, "n0")
        nn.add_replica(bid, "n1")
        assert nn.replicas_of(bid) == {"n0", "n1"}
        nn.replicas_of(bid).discard("n0")  # a copy: the map is unchanged
        assert nn.replicas_of(bid) == {"n0", "n1"}

    def test_list_files_prefix(self):
        nn = NameNode()
        for path in ("/a/x", "/a/y", "/b/z"):
            nn.create_file(path, 0, [BlockId(path, 0)])
        assert nn.list_files("/a/") == ["/a/x", "/a/y"]
        assert nn.list_files() == ["/a/x", "/a/y", "/b/z"]
