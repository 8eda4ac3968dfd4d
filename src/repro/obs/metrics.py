"""Per-session metrics registry: counters, gauges, timers, histograms.

Sparklet, the DFS and the ML layer publish into their session's registry
(guarded by the session's ``enabled`` flag, so disabled observability costs
one attribute check).  Histograms use *fixed* bucket edges so snapshots
from different runs are directly comparable and the report renderer can
draw stable task-skew histograms.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Any, Iterator, Sequence

#: Default histogram bucket edges (seconds-flavoured log scale).  A value v
#: lands in the first bucket whose edge is >= v; values beyond the last edge
#: land in the +Inf overflow bucket.
DEFAULT_EDGES: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 300.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max aggregates."""

    __slots__ = ("name", "edges", "counts", "overflow", "total", "count", "min", "max")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_EDGES) -> None:
        if list(edges) != sorted(edges) or len(edges) < 1:
            raise ValueError("histogram edges must be a non-empty ascending sequence")
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * len(self.edges)
        self.overflow = 0
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        # Bucket i holds values in (edges[i-1], edges[i]]: the first edge
        # >= value, found by bisect_left (edge-inclusive on the right).
        idx = bisect_left(self.edges, value)
        if idx >= len(self.edges):
            self.overflow += 1
        else:
            self.counts[idx] += 1
        self.total += value
        self.count += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class Timer:
    """Duration recorder; use as a context manager around the timed block."""

    __slots__ = ("name", "histogram", "_t0")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_EDGES) -> None:
        self.name = name
        self.histogram = Histogram(name, edges)

    def observe(self, seconds: float) -> None:
        self.histogram.observe(seconds)

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def total_s(self) -> float:
        return self.histogram.total

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.observe(time.perf_counter() - self._t0)


class MetricsRegistry:
    """Named metric instruments, created on first use.

    A name maps to exactly one instrument kind for the registry's lifetime;
    asking for the same name with a different kind is a bug and raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}

    def _get(self, name: str, cls, *args):
        inst = self._metrics.get(name)
        if inst is None:
            inst = cls(name, *args)
            self._metrics[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__}, "
                f"not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, edges: Sequence[float] = DEFAULT_EDGES) -> Histogram:
        return self._get(name, Histogram, edges)

    def timer(self, name: str, edges: Sequence[float] = DEFAULT_EDGES) -> Timer:
        return self._get(name, Timer, edges)

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        return iter(sorted(self._metrics.items()))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """JSON-able dump of every instrument, sorted by name."""
        out: dict[str, Any] = {}
        for name, inst in self:
            if isinstance(inst, Counter):
                out[name] = {"kind": "counter", "value": inst.value}
            elif isinstance(inst, Gauge):
                out[name] = {"kind": "gauge", "value": inst.value}
            elif isinstance(inst, Timer):
                out[name] = {"kind": "timer", **inst.histogram.to_dict()}
            else:
                out[name] = {"kind": "histogram", **inst.to_dict()}
        return out
