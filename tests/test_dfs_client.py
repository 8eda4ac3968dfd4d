"""Unit tests for the DFS client: put/get, replication, reads past lost replicas."""

import pytest

from repro.dfs import DataNode, DFSClient, DFSError, FileNotFoundInDFS


def make_client(n_nodes: int = 4, replication: int = 2, block_size: int = 64) -> DFSClient:
    nodes = [DataNode(f"n{i}") for i in range(n_nodes)]
    return DFSClient(nodes, replication=replication, block_size=block_size, seed=1)


def lose_replicas(dfs: DFSClient, path: str, node_id: str) -> None:
    """Drop ``node_id``'s copies of ``path``'s blocks behind the namenode's
    back, so reads must fall through to another replica."""
    for bid, nodes in dfs.block_locations(path):
        if node_id in nodes:
            dfs._nodes[node_id].drop(bid)


class TestPutGet:
    def test_roundtrip_small(self):
        dfs = make_client()
        dfs.put("/f", b"hello world")
        assert dfs.get("/f") == b"hello world"

    def test_roundtrip_multiblock(self):
        dfs = make_client(block_size=16)
        payload = bytes(range(256)) * 3
        dfs.put("/f", payload)
        assert dfs.get("/f") == payload

    def test_text_roundtrip(self):
        dfs = make_client()
        dfs.put_text("/t", "héllo\nwörld\n")
        assert dfs.get_text("/t") == "héllo\nwörld\n"

    def test_empty_file(self):
        dfs = make_client()
        dfs.put("/e", b"")
        assert dfs.get("/e") == b""

    def test_duplicate_path_rejected(self):
        dfs = make_client()
        dfs.put("/f", b"a")
        with pytest.raises(FileExistsError):
            dfs.put("/f", b"b")

    def test_missing_file_raises(self):
        dfs = make_client()
        with pytest.raises(FileNotFoundInDFS):
            dfs.get("/missing")

    def test_ls_and_exists(self):
        dfs = make_client()
        dfs.put("/data/a", b"1")
        dfs.put("/data/b", b"2")
        dfs.put("/other", b"3")
        assert dfs.ls("/data/") == ["/data/a", "/data/b"]
        assert dfs.exists("/data/a")
        assert not dfs.exists("/data/c")

    def test_delete_frees_space(self):
        dfs = make_client()
        dfs.put("/f", b"x" * 1000)
        before = dfs.total_stored_bytes()
        dfs.delete("/f")
        assert dfs.total_stored_bytes() < before
        assert not dfs.exists("/f")
        dfs.put("/f", b"again")  # path reusable after delete
        assert dfs.get("/f") == b"again"


class TestReplication:
    def test_each_block_has_replication_copies(self):
        dfs = make_client(n_nodes=4, replication=3, block_size=32)
        dfs.put("/f", b"y" * 100)
        for _bid, nodes in dfs.block_locations("/f"):
            assert len(nodes) == 3

    def test_total_bytes_accounts_replicas(self):
        dfs = make_client(replication=2, block_size=1000)
        dfs.put("/f", b"z" * 500)
        assert dfs.total_stored_bytes() == 1000  # 500 bytes × 2 replicas

    def test_replication_capped_by_node_count(self):
        dfs = make_client(n_nodes=2, replication=3)
        dfs.put("/f", b"q" * 10)
        for _bid, nodes in dfs.block_locations("/f"):
            assert len(nodes) == 2

    def test_placement_spreads_load(self):
        dfs = make_client(n_nodes=4, replication=1, block_size=10)
        dfs.put("/f", b"a" * 200)  # 20 blocks over 4 nodes
        used = [n.used_bytes for n in dfs._nodes.values()]
        assert max(used) - min(used) <= 20  # within two blocks of even


class TestFailureRecovery:
    def test_read_survives_single_node_failure(self):
        dfs = make_client(n_nodes=4, replication=2, block_size=16)
        payload = b"important data " * 20
        dfs.put("/f", payload)
        lose_replicas(dfs, "/f", "n0")
        assert dfs.get("/f") == payload

    def test_data_survives_sequential_failures(self):
        dfs = make_client(n_nodes=5, replication=3, block_size=16)
        payload = b"p" * 300
        dfs.put("/f", payload)
        lose_replicas(dfs, "/f", "n0")
        lose_replicas(dfs, "/f", "n1")
        assert dfs.get("/f") == payload

    def test_losing_all_replicas_is_an_error(self):
        dfs = make_client(n_nodes=2, replication=1, block_size=8)
        dfs.put("/f", b"gone")
        for node_id in ("n0", "n1"):
            lose_replicas(dfs, "/f", node_id)
        with pytest.raises(DFSError):
            dfs.get("/f")


class TestConstruction:
    def test_needs_at_least_one_node(self):
        with pytest.raises(ValueError):
            DFSClient([], replication=1)

    def test_rejects_duplicate_node_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            DFSClient([DataNode("a"), DataNode("a")])

    def test_rejects_bad_replication(self):
        with pytest.raises(ValueError, match="replication"):
            DFSClient([DataNode("a")], replication=0)


class TestPlacementGolden:
    def test_block_locations_are_pinned(self):
        # A fixed put/get/delete sequence on a seeded 6-node, replication-3
        # cluster.  Reads draw from the same RNG as placement, so this pins
        # both the emptiest-first placement and the order of every draw.
        dfs = DFSClient([DataNode(f"dn{i}") for i in range(6)], replication=3,
                        block_size=16, seed=7)
        dfs.put("/a", b"a" * 32)
        dfs.get("/a")
        dfs.put("/b", b"b" * 48)
        dfs.put("/c", b"c" * 16)
        dfs.get("/b")
        dfs.delete("/a")
        dfs.put("/d", b"d" * 40)
        dfs.get("/c")
        dfs.put("/e", b"e" * 7)
        dfs.put("/f", b"")
        got = {
            path: [(bid.index, sorted(nodes)) for bid, nodes in dfs.block_locations(path)]
            for path in dfs.ls()
        }
        assert got == {
            "/b": [(0, ["dn1", "dn2", "dn4"]), (1, ["dn0", "dn3", "dn5"]),
                   (2, ["dn2", "dn3", "dn5"])],
            "/c": [(0, ["dn0", "dn1", "dn4"])],
            "/d": [(0, ["dn2", "dn3", "dn5"]), (1, ["dn0", "dn1", "dn4"]),
                   (2, ["dn0", "dn2", "dn5"])],
            "/e": [(0, ["dn1", "dn3", "dn4"])],
            "/f": [(0, ["dn1", "dn3", "dn4"])],
        }
