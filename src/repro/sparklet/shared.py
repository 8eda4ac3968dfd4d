"""Shared variables: accumulators.

An *accumulator* aggregates task-side counters (rows parsed, rows dropped)
back to the driver; D-RAPID counts its malformed input rows this way.
Accumulators carry real correctness rules mirrored from Spark: adds from
*failed* task attempts must not double-count, so the scheduler buffers
per-attempt contributions and commits them only when the attempt succeeds.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

T = TypeVar("T")


class Accumulator(Generic[T]):
    """A task-side write-only, driver-side read-only aggregator.

    ``add`` calls made inside a running task are buffered per attempt and
    committed by the scheduler only if that attempt succeeds — retried
    tasks therefore count exactly once, matching Spark's guarantee for
    accumulators used inside actions.

    Commits are additionally keyed by the logical task ``(stage id,
    partition)``: when lineage recovery re-runs an already-successful map
    task (its executor died, or a fetch failure invalidated its shuffle),
    the recomputed attempt's adds are discarded.  This extends exactly-once
    semantics to recomputation waves, which the chaos suite relies on —
    without it a faulted run would over-count relative to a fault-free run.
    """

    def __init__(self, acc_id: int | str, zero: T, op: Callable[[T, T], T]) -> None:
        self._id = acc_id
        self._zero = zero
        self._value = zero
        self._op = op
        #: Uncommitted adds of the attempt currently running (serial engine:
        #: at most one attempt is in flight).
        self._pending: list[T] = []
        self._in_task = False
        #: Logical tasks whose adds have already been committed.
        self._committed: set[tuple[int, int]] = set()

    def __reduce__(self):
        """Pickle by identity, not by state.

        A task closure shipped to a worker references the driver's
        accumulator; unpickling there resolves through the worker's
        per-process registry so every task in that worker shares one
        instance per logical accumulator, and its buffered adds travel
        back to the driver for the usual exactly-once commit.
        """
        return (_resolve_accumulator, (self._id, self._zero, self._op))

    def memo_token(self) -> str:
        """Lineage-hash identity stripped of the process-variable context uid.

        Ids look like ``ctx<pid>-<n>:a<k>``; only the ``a<k>`` creation-order
        suffix is stable across processes, and it is what lets a memo entry
        recorded in one run replay its accumulator delta onto the matching
        accumulator of a later run.  Folding in the zero and the op keeps
        two same-numbered accumulators with different semantics apart.
        """
        from repro.memo.hashing import callable_token, digest, token_for

        return digest([
            f"acc:{memo_suffix_of(self._id)}",
            token_for(self._zero),
            callable_token(self._op),
        ])

    # -- task side ----------------------------------------------------------
    def add(self, amount: T) -> None:
        if self._in_task:
            self._pending.append(amount)
        else:
            # Driver-side add commits immediately.
            self._value = self._op(self._value, amount)

    def __iadd__(self, amount: T) -> "Accumulator[T]":
        self.add(amount)
        return self

    # -- scheduler hooks ------------------------------------------------------
    def _begin_attempt(self) -> None:
        self._pending.clear()
        self._in_task = True

    def _commit_attempt(self, task_key: tuple[int, int] | None = None) -> None:
        if task_key is not None:
            if task_key in self._committed:
                # Recomputed task: its adds were already counted.
                self._pending.clear()
                self._in_task = False
                return
            self._committed.add(task_key)
        for amount in self._pending:
            self._value = self._op(self._value, amount)
        self._pending.clear()
        self._in_task = False

    def _abort_attempt(self) -> None:
        self._pending.clear()
        self._in_task = False

    # -- driver side -----------------------------------------------------------
    @property
    def value(self) -> T:
        return self._value

    def reset(self) -> None:
        self._value = self._zero
        self._pending.clear()
        self._committed.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Accumulator id={self._id} value={self._value!r}>"


def memo_suffix_of(acc_id: "int | str") -> str:
    """The context-independent part of an accumulator id (``a<k>``)."""
    text = str(acc_id)
    return text.rsplit(":", 1)[-1]


def _resolve_accumulator(acc_id, zero, op) -> "Accumulator":
    """Unpickle hook: inside a pool worker, dedupe by accumulator id."""
    from repro.sparklet.executor import worker_accumulator_registry

    registry = worker_accumulator_registry()
    if registry is None:
        return Accumulator(acc_id, zero, op)
    acc = registry.get(acc_id)
    if acc is None:
        acc = Accumulator(acc_id, zero, op)
        registry[acc_id] = acc
    return acc
