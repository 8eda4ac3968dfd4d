"""YARN-style resource management: nodes, containers, executor grants.

The paper's testbed is 15 heterogeneous data nodes managed by Hadoop YARN,
supporting at most 22 executors of 2 vcores / 2560 MB each.  This module
models that: a :class:`ResourceManager` owns node capacities and grants
executor containers to applications until capacity is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ExecutorSpec:
    """Resource request for one executor container (paper: 2 cores, 2560 MB)."""

    vcores: int = 2
    memory_mb: int = 2560

    def __post_init__(self) -> None:
        if self.vcores < 1 or self.memory_mb < 1:
            raise ValueError("executor spec must request positive resources")


@dataclass
class NodeCapacity:
    """One cluster node's schedulable resources."""

    node_id: str
    vcores: int
    memory_mb: int
    used_vcores: int = 0
    used_memory_mb: int = 0

    def can_fit(self, spec: ExecutorSpec) -> bool:
        return (
            self.vcores - self.used_vcores >= spec.vcores
            and self.memory_mb - self.used_memory_mb >= spec.memory_mb
        )

    def allocate(self, spec: ExecutorSpec) -> None:
        if not self.can_fit(spec):
            raise RuntimeError(f"node {self.node_id} cannot fit {spec}")
        self.used_vcores += spec.vcores
        self.used_memory_mb += spec.memory_mb

    def release(self, spec: ExecutorSpec) -> None:
        self.used_vcores -= spec.vcores
        self.used_memory_mb -= spec.memory_mb


@dataclass(frozen=True)
class Container:
    """A granted executor container."""

    container_id: int
    node_id: str
    spec: ExecutorSpec


class ResourceManager:
    """Grants executor containers across nodes, round-robin least-loaded."""

    def __init__(self, nodes: list[NodeCapacity], obs=None) -> None:
        if not nodes:
            raise ValueError("cluster needs at least one node")
        self.nodes = {n.node_id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise ValueError("duplicate node ids")
        self._next_container = 0
        #: container_id -> Container.  Keyed for O(1) release; the public
        #: ``granted`` property preserves the old list view (grant order).
        self._granted: dict[int, Container] = {}
        #: Optional ObsSession; grants and releases are published.
        #: Duck-typed so this module has no obs import dependency.
        self.obs = obs

    @property
    def granted(self) -> list[Container]:
        """Live containers in grant order."""
        return list(self._granted.values())

    def max_executors(self, spec: ExecutorSpec) -> int:
        """How many executors of this spec the cluster can host in total."""
        total = 0
        for node in self.nodes.values():
            by_cores = (node.vcores - node.used_vcores) // spec.vcores
            by_mem = (node.memory_mb - node.used_memory_mb) // spec.memory_mb
            total += max(0, min(by_cores, by_mem))
        return total

    def request_executors(self, count: int, spec: ExecutorSpec) -> list[Container]:
        """Grant up to ``count`` containers, spreading over least-loaded nodes."""
        grants: list[Container] = []
        for _ in range(count):
            candidates = [n for n in self.nodes.values() if n.can_fit(spec)]
            if not candidates:
                break
            node = min(candidates, key=lambda n: (n.used_vcores, n.used_memory_mb, n.node_id))
            node.allocate(spec)
            container = Container(self._next_container, node.node_id, spec)
            self._next_container += 1
            self._granted[container.container_id] = container
            grants.append(container)
            if self.obs is not None and self.obs.enabled:
                self.obs.emit(
                    "container_granted", container_id=container.container_id,
                    node_id=node.node_id, vcores=spec.vcores,
                    memory_mb=spec.memory_mb,
                )
        return grants

    def release(self, container: Container) -> None:
        """Return a container's resources.  Double release is an error."""
        if container.container_id not in self._granted:
            raise KeyError(
                f"container {container.container_id} is not granted (double release?)"
            )
        del self._granted[container.container_id]
        self.nodes[container.node_id].release(container.spec)
        if self.obs is not None and self.obs.enabled:
            self.obs.emit(
                "container_released", container_id=container.container_id,
                node_id=container.node_id,
            )

    def release_all(self) -> None:
        for container in self.granted:
            self.release(container)


def paper_testbed() -> ResourceManager:
    """The ICPP'18 experimental cluster: 15 data nodes (8× quad-core i5 with
    8 GB, 7× dual-core Core2 with 4 GB; one i5 is the master and excluded).

    With the paper's 2-core/2560 MB executor spec this yields a maximum of
    22 executors, matching Section 6.1.
    """
    nodes: list[NodeCapacity] = []
    # 7 remaining i5 data nodes: 4 vcores, 8 GB (~7680 MB schedulable)
    for i in range(7):
        nodes.append(NodeCapacity(node_id=f"i5-{i}", vcores=4, memory_mb=7680))
    # 8 Core2 Duo data nodes: 2 vcores, 4 GB (~2560 MB schedulable)
    for i in range(8):
        nodes.append(NodeCapacity(node_id=f"c2d-{i}", vcores=2, memory_mb=2560))
    return ResourceManager(nodes)


@dataclass
class ClusterConfig:
    """Knobs of the simulated Spark-on-YARN deployment.

    Defaults approximate the paper's testbed: commodity gigabit Ethernet,
    spinning disks, 2-core/2560 MB executors, and per-task launch overheads
    in the tens of milliseconds that YARN/Spark exhibit.

    ``data_scale`` maps the scaled-down synthetic workload onto paper scale
    (the paper processes 10.2 GB; CI-sized runs process far less).  It is a
    *homothetic* workload multiplier: every byte quantity AND every task's
    CPU time are multiplied by it before bandwidth/memory/makespan math, as
    if each task processed ``data_scale`` times the records it measured.
    """

    num_executors: int = 5
    executor_spec: ExecutorSpec = field(default_factory=ExecutorSpec)
    task_overhead_s: float = 0.004
    scheduler_delay_s: float = 0.015
    network_bandwidth_mbps: float = 940.0
    disk_bandwidth_mbps: float = 1000.0
    #: Fraction of executor memory usable for cached/shuffle data (Spark's
    #: unified memory fraction).
    memory_fraction: float = 0.6
    #: CPU slowdown applied to work that spills (re-deserialization etc.).
    spill_cpu_penalty: float = 1.5
    #: Disk passes paid per spilled byte.  Eviction under memory pressure
    #: costs a write plus a read, and lineage recomputation of evicted
    #: partitions re-reads inputs again ("portions of the RDDs must be
    #: frequently swapped out to disk", RQ2) — hence > 2 passes.
    spill_io_passes: float = 4.0
    data_scale: float = 1.0
    cpu_speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.num_executors < 1:
            raise ValueError(f"num_executors must be >= 1, got {self.num_executors}")
        for name in ("network_bandwidth_mbps", "disk_bandwidth_mbps",
                     "data_scale", "cpu_speed_factor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0 < self.memory_fraction <= 1:
            raise ValueError(
                f"memory_fraction must be in (0, 1], got {self.memory_fraction}"
            )
        for name in ("task_overhead_s", "scheduler_delay_s",
                     "spill_cpu_penalty", "spill_io_passes"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def total_cores(self) -> int:
        return self.num_executors * self.executor_spec.vcores

    @property
    def executor_memory_bytes(self) -> float:
        return self.executor_spec.memory_mb * 1024.0 * 1024.0 * self.memory_fraction
