"""Fault model for the distributed substrate: rules, injector, executors.

The paper runs D-RAPID on Spark-over-YARN *because* lineage-based fault
tolerance is what makes commodity-cluster scaling viable (Section 4).  This
module supplies the failure vocabulary the scheduler understands:

- :class:`TaskFailure` — the task attempt crashed (user code / JVM death);
  the scheduler re-runs the attempt, possibly on another executor.
- :class:`ExecutorLostFailure` — the whole executor died.  Every shuffle map
  output registered on it is lost and must be recomputed via lineage; YARN
  grants a replacement container.
- :class:`FetchFailedException` — a reduce task could not fetch a map
  output.  Spark reacts by invalidating the *parent shuffle* and re-running
  the parent map stage; the scheduler mirrors that.

A :class:`FaultInjector` draws from a seeded RNG against a list of
:class:`FailureRule`\\ s on every task attempt, so chaos tests are exactly
reproducible: same seed, same rules, same execution order → same faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Rule kinds understood by the injector.
TASK_CRASH = "task_crash"
EXECUTOR_LOSS = "executor_loss"
FETCH_FAILURE = "fetch_failure"

_KINDS = (TASK_CRASH, EXECUTOR_LOSS, FETCH_FAILURE)


class TaskFailure(RuntimeError):
    """Raised inside a task to simulate a task-attempt crash."""


class ExecutorLostFailure(RuntimeError):
    """The executor hosting the attempt died (OOM kill, node reboot, ...)."""

    def __init__(self, executor_id: str) -> None:
        super().__init__(f"executor {executor_id} lost")
        self.executor_id = executor_id


class FetchFailedException(RuntimeError):
    """A shuffle block fetch from a parent map output failed."""

    def __init__(self, shuffle_id: int) -> None:
        super().__init__(f"fetch failed for shuffle {shuffle_id}")
        self.shuffle_id = shuffle_id


#: The failures an attempt can recover from (anything else fails the job).
RECOVERABLE_FAILURES = (TaskFailure, ExecutorLostFailure, FetchFailedException)


class TaskAttempt:
    """Retry state of one logical task across its attempts in a stage run.

    The scheduler's attempt protocol advances it; backends only carry it
    from ``begin_attempt`` to ``attempt_succeeded`` / ``attempt_failed``.
    """

    __slots__ = ("partition", "attempt", "recoveries", "executor_id")

    def __init__(self, partition: int) -> None:
        self.partition = partition
        #: 1-based index of the current attempt (0 before the first).
        self.attempt = 0
        #: Fetch-failure recovery waves this task has triggered.
        self.recoveries = 0
        #: Executor the current attempt is placed on.
        self.executor_id = ""


@dataclass(frozen=True)
class FailureRule:
    """One class of injected fault.

    ``probability`` is evaluated per task attempt; ``max_fires`` bounds the
    total number of injections so a seeded chaos run always terminates
    (otherwise an unlucky RNG stream could exhaust every task retry).
    """

    kind: str
    probability: float
    max_fires: int = 3

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}; expected one of {_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.max_fires < 0:
            raise ValueError("max_fires must be >= 0")


@dataclass(frozen=True)
class FaultConfig:
    """Everything the substrate needs to run under injected faults.

    Surfaced as the ``fault_config`` knob on :class:`SparkletContext`,
    :class:`~repro.core.drapid.DRapidDriver` and
    :class:`~repro.api.PipelineConfig`.
    """

    seed: int = 0
    rules: tuple[FailureRule, ...] = ()
    #: Task failures on one executor before it is blacklisted for scheduling.
    max_failures_per_executor: int = 2

    @classmethod
    def chaos(cls, seed: int = 0, rate: float = 0.05, max_fires: int = 3) -> "FaultConfig":
        """A mixed rule set exercising all three failure paths."""
        return cls(
            seed=seed,
            rules=(
                FailureRule(TASK_CRASH, rate, max_fires=max_fires),
                FailureRule(EXECUTOR_LOSS, rate / 2, max_fires=max_fires),
                FailureRule(FETCH_FAILURE, rate, max_fires=max_fires),
            ),
        )


@dataclass
class InjectedFault:
    """Log record of one fired rule (inspected by chaos tests)."""

    kind: str
    stage_id: int
    partition: int
    attempt: int
    executor_id: str


class FaultInjector:
    """Seeded per-attempt fault source driven by :class:`FailureRule` s.

    The scheduler calls :meth:`on_task_start` at the beginning of every task
    attempt.  One uniform draw is consumed per rule per attempt regardless of
    whether the rule fires, keeping the RNG stream aligned across runs whose
    control flow differs only in *which* rule fired.
    """

    def __init__(self, config: FaultConfig, obs=None) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self._fires: dict[int, int] = {i: 0 for i in range(len(config.rules))}
        self.events: list[InjectedFault] = []
        #: Optional ObsSession; fired rules are published as fault_injected
        #: events.  Kept duck-typed so this module stays import-light.
        self.obs = obs

    @property
    def total_fired(self) -> int:
        return len(self.events)

    def fired_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {k: 0 for k in _KINDS}
        for ev in self.events:
            out[ev.kind] += 1
        return out

    def on_task_start(
        self,
        stage_id: int,
        partition: int,
        attempt: int,
        executor_id: str,
        shuffle_reads: tuple[int, ...] = (),
    ) -> None:
        """Possibly raise one of the failure exceptions for this attempt."""
        for idx, rule in enumerate(self.config.rules):
            draw = self._rng.random()
            if self._fires[idx] >= rule.max_fires:
                continue
            if draw >= rule.probability:
                continue
            if rule.kind == FETCH_FAILURE and not shuffle_reads:
                continue  # nothing to fetch in this stage; rule cannot apply
            self._fires[idx] += 1
            self.events.append(
                InjectedFault(rule.kind, stage_id, partition, attempt, executor_id)
            )
            if self.obs is not None and self.obs.enabled:
                self.obs.emit(
                    "fault_injected", kind=rule.kind, stage_id=stage_id,
                    partition=partition, attempt=attempt, executor_id=executor_id,
                )
            if rule.kind == TASK_CRASH:
                raise TaskFailure(
                    f"injected crash: stage {stage_id} partition {partition} attempt {attempt}"
                )
            if rule.kind == EXECUTOR_LOSS:
                raise ExecutorLostFailure(executor_id)
            raise FetchFailedException(min(shuffle_reads))


@dataclass
class ExecutorInfo:
    """Scheduler-side view of one executor container."""

    executor_id: str
    alive: bool = True
    blacklisted: bool = False
    failures: int = 0

    @property
    def healthy(self) -> bool:
        return self.alive and not self.blacklisted


class ExecutorPool:
    """Tracks executors for task placement, blacklisting and replacement.

    Placement is deterministic (a function of partition and attempt) so a
    seeded chaos run reproduces exactly.  When an executor is lost, a
    replacement container is provisioned — modelling YARN re-granting a
    container after ``spark.yarn.max.executor.failures`` has not tripped.
    Blacklisting never removes the last healthy executor: Spark would fail
    the job there, but this substrate must always be able to finish (its
    task results are the ground truth the simulator replays).
    """

    def __init__(self, num_executors: int = 4) -> None:
        if num_executors < 1:
            raise ValueError("need at least one executor")
        self._executors: dict[str, ExecutorInfo] = {}
        self._next_id = 0
        for _ in range(num_executors):
            self._provision()
        self.n_lost = 0
        self.n_blacklisted = 0

    def _provision(self) -> ExecutorInfo:
        info = ExecutorInfo(f"exec-{self._next_id}")
        self._next_id += 1
        self._executors[info.executor_id] = info
        return info

    @property
    def executors(self) -> list[ExecutorInfo]:
        return list(self._executors.values())

    def healthy_ids(self) -> list[str]:
        return [e.executor_id for e in self._executors.values() if e.healthy]

    def pick(self, partition: int, attempt: int, salt: int = 0) -> str:
        """Deterministic placement: rotate over healthy executors.

        The attempt index participates so a retried task lands on a
        *different* executor than the attempt that just failed there.
        ``salt`` offsets the rotation per scheduler pool, so co-resident
        tenants spread over different executor subsets; the default pool
        salts to 0, preserving the historical single-tenant placement.
        """
        healthy = self.healthy_ids()
        return healthy[(partition + salt + 7 * (attempt - 1)) % len(healthy)]

    def record_failure(self, executor_id: str, threshold: int) -> bool:
        """Count a task failure on an executor; blacklist past ``threshold``.

        Returns True when this call blacklisted the executor.
        """
        info = self._executors.get(executor_id)
        if info is None or not info.healthy:
            return False
        info.failures += 1
        if info.failures >= threshold and len(self.healthy_ids()) > 1:
            info.blacklisted = True
            self.n_blacklisted += 1
            return True
        return False

    def lose(self, executor_id: str) -> str:
        """Mark an executor dead and provision a replacement container."""
        info = self._executors.get(executor_id)
        if info is not None and info.alive:
            info.alive = False
            self.n_lost += 1
        return self._provision().executor_id
