"""Unit tests for the YARN-style resource manager and cluster config."""

import pytest

from repro.sparklet.cluster import (
    ClusterConfig,
    ExecutorSpec,
    NodeCapacity,
    ResourceManager,
    paper_testbed,
)


class TestExecutorSpec:
    def test_defaults_match_paper(self):
        spec = ExecutorSpec()
        assert spec.vcores == 2
        assert spec.memory_mb == 2560

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExecutorSpec(vcores=0)
        with pytest.raises(ValueError):
            ExecutorSpec(memory_mb=0)


class TestNodeCapacity:
    def test_allocate_release_cycle(self):
        node = NodeCapacity("n", vcores=4, memory_mb=8000)
        spec = ExecutorSpec()
        node.allocate(spec)
        assert node.used_vcores == 2
        node.release(spec)
        assert node.used_vcores == 0

    def test_cannot_overallocate(self):
        node = NodeCapacity("n", vcores=2, memory_mb=2560)
        spec = ExecutorSpec()
        node.allocate(spec)
        assert not node.can_fit(spec)
        with pytest.raises(RuntimeError):
            node.allocate(spec)


class TestResourceManager:
    def test_paper_testbed_supports_22_executors(self):
        rm = paper_testbed()
        assert rm.max_executors(ExecutorSpec()) == 22

    def test_grant_count_capped_by_capacity(self):
        rm = paper_testbed()
        grants = rm.request_executors(30, ExecutorSpec())
        assert len(grants) == 22

    def test_grants_spread_over_nodes(self):
        rm = paper_testbed()
        grants = rm.request_executors(15, ExecutorSpec())
        # 15 nodes, least-loaded placement → every node hosts one executor.
        assert len({g.node_id for g in grants}) == 15

    def test_release_all_restores_capacity(self):
        rm = paper_testbed()
        rm.request_executors(22, ExecutorSpec())
        assert rm.max_executors(ExecutorSpec()) == 0
        rm.release_all()
        assert rm.max_executors(ExecutorSpec()) == 22

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            ResourceManager([])

    def test_rejects_duplicate_nodes(self):
        nodes = [NodeCapacity("a", 2, 1000), NodeCapacity("a", 2, 1000)]
        with pytest.raises(ValueError):
            ResourceManager(nodes)

    def test_container_ids_unique(self):
        rm = paper_testbed()
        grants = rm.request_executors(10, ExecutorSpec())
        assert len({g.container_id for g in grants}) == 10


class TestClusterConfig:
    def test_total_cores(self):
        cfg = ClusterConfig(num_executors=5)
        assert cfg.total_cores == 10

    def test_executor_memory_respects_fraction(self):
        cfg = ClusterConfig(memory_fraction=0.5)
        assert cfg.executor_memory_bytes == 2560 * 1024 * 1024 * 0.5


class TestReleaseAndDecommission:
    def test_release_restores_node_capacity(self):
        rm = paper_testbed()
        (container,) = rm.request_executors(1, ExecutorSpec())
        before = rm.max_executors(ExecutorSpec())
        rm.release(container)
        assert rm.max_executors(ExecutorSpec()) == before + 1
        assert rm.granted == []

    def test_double_release_is_an_error(self):
        rm = paper_testbed()
        (container,) = rm.request_executors(1, ExecutorSpec())
        rm.release(container)
        with pytest.raises(KeyError, match="double release"):
            rm.release(container)
        # The failed release must not have corrupted node accounting.
        assert rm.max_executors(ExecutorSpec()) == 22

    def test_release_unknown_container_is_an_error(self):
        from repro.sparklet.cluster import Container

        rm = paper_testbed()
        with pytest.raises(KeyError):
            rm.release(Container(999, "i5-0", ExecutorSpec()))

    def test_granted_keyed_by_container_id(self):
        rm = paper_testbed()
        grants = rm.request_executors(5, ExecutorSpec())
        rm.release(grants[2])
        remaining = [c.container_id for c in rm.granted]
        assert remaining == [g.container_id for g in grants if g is not grants[2]]
