"""The harness's own spans: recorded around calls into each layer.

Spans live in memory (name, start, end, parent, pass id) and are written
out with the result envelope when the run ends.  Spans inside ``src/`` are
a later change; until then every span is opened here, from outside, around a
layer's public function.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.pass_id = 0
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "pass": self.pass_id,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def seconds_by_name(self, pass_id: int) -> dict[str, float]:
        """Total duration per span name within one pass."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["pass"] == pass_id:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def top_level_seconds(self, pass_id: int) -> float:
        """Time covered by the spans that tile the pass (no parent)."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["pass"] == pass_id and s["parent"] is None
        )
