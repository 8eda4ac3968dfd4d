"""Span tracer: nested, monotonic-clock spans written into the event log.

A span covers one unit of work (a pipeline stage, a Sparklet stage wave, a
task attempt).  Spans nest — entering a span while another is open makes it
the child — so a faulted D-RAPID run shows recomputation waves *inside* the
task attempt that triggered them.  The tracer keeps only the stack of open
span ids; each span is a ``span_start``/``span_end`` pair in the session's
:class:`~repro.obs.events.EventLog`, which is the one record of it.  Span
ids are ``00000000-NNNNNN`` from an allocation counter (no wall clock, no
randomness), so a seeded chaos run produces the same span tree every time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import EventLog


class Tracer:
    """Writes nested spans into an event log."""

    def __init__(self, log: "EventLog") -> None:
        self.log = log
        self._counter = 0
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Open a child span of the innermost open span for the block."""
        self._counter += 1
        span_id = f"00000000-{self._counter:06d}"
        parent_id = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self.log.emit("span_start", span_id=span_id, parent_id=parent_id,
                      name=name, **attrs)
        status = "ok"
        t0 = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            status = f"error:{type(exc).__name__}"
            raise
        finally:
            duration_s = time.perf_counter() - t0
            self._stack.pop()
            self.log.emit("span_end", span_id=span_id, name=name,
                          duration_s=duration_s, status=status)
