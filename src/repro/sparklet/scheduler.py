"""DAG scheduler: splits lineage into stages and executes tasks.

Execution is *real* — every task runs and produces exact results — and each
task is metered (duration, record/byte counts, shuffle volumes, locality
preferences).  The resulting :class:`~repro.sparklet.metrics.JobMetrics`
calibrate the discrete-event cluster simulator.  *How* the tasks of one
stage run is delegated to the runtime's execution backend
(:mod:`repro.sparklet.executor`): inline in the driver (``serial``, the
reference) or concurrently on a pool of worker processes with
shared-memory transport (``parallel``) — both produce byte-identical
results, because the *task-attempt protocol* (placement, injector
consultation, events, counters, the retry/recovery decision) is three
methods both backends call: :meth:`DAGScheduler.begin_attempt`,
:meth:`~DAGScheduler.attempt_succeeded` and
:meth:`~DAGScheduler.attempt_failed`.

Fault tolerance follows Spark's lineage model end to end:

- a crashed task attempt is re-run, rotated onto a different executor;
  repeated failures on one executor blacklist it for future placement;
- a lost executor takes its registered shuffle map outputs with it — the
  scheduler invalidates them and re-runs exactly the missing map partitions
  (a recomputation wave, recorded as a new :class:`StageMetrics` with
  ``attempt >= 1``) before retrying the victim task;
- a shuffle-fetch failure invalidates the whole parent shuffle and re-runs
  the parent map stage via lineage, exactly like Spark's
  ``FetchFailed`` → map-stage-retry path.

Because shuffle buckets are keyed per map partition and fetched in sorted
order, and accumulator commits are keyed by logical task, a faulted run
produces *byte-identical* results and accumulator values to a fault-free
run — the invariant the chaos suite sweeps over seeds and rule mixes.

Faults come from two sources: the seeded rule-driven
:class:`~repro.sparklet.faults.FaultInjector` installed via ``fault_config``,
and the ``Runtime.failure_injector`` test seam (``f(stage_id, partition,
attempt)``, may raise :class:`TaskFailure`) through which tests substitute a
deterministic fake.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Iterator

from repro.obs import events as obs_events
from repro.obs.session import NULL_OBS, ObsSession
from repro.sparklet.executor import SerialBackend
from repro.sparklet.faults import (
    RECOVERABLE_FAILURES,
    ExecutorLostFailure,
    ExecutorPool,
    FaultInjector,
    FetchFailedException,
    TaskAttempt,
    TaskFailure,
)
from repro.sparklet.metrics import JobMetrics, StageMetrics, TaskMetrics
from repro.sparklet.pools import DEFAULT_POOL, pool_salt
from repro.sparklet.rdd import RDD, ShuffleDependency
from repro.sparklet.shuffle import ShuffleManager

__all__ = [
    "DAGScheduler",
    "Runtime",
    "Stage",
    "TaskFailure",
    "ExecutorLostFailure",
    "FetchFailedException",
]


class Runtime:
    """Per-context mutable execution state shared by tasks."""

    def __init__(
        self,
        num_executors: int = 4,
        obs: ObsSession = NULL_OBS,
        backend: Any | None = None,
    ) -> None:
        self.shuffle = ShuffleManager()
        #: How tasks of one stage are executed (serial / parallel).
        self.backend = backend if backend is not None else SerialBackend()
        #: Observability session shared with the owning context.  The
        #: disabled singleton makes every emit a no-op behind one attribute
        #: check; the end-to-end benchmark's ``wall_s`` no-regression gate
        #: is what holds its cost.
        self.obs = obs
        self.cache: dict[tuple[int, int], list[Any]] = {}
        #: Optional hook: f(stage_id, partition, attempt) may raise TaskFailure.
        self.failure_injector: Callable[[int, int, int], None] | None = None
        #: Rule-driven seeded injector (installed via fault_config).
        self.fault_injector: FaultInjector | None = None
        #: Executor containers tasks are placed on (for blacklisting and
        #: map-output loss accounting; execution itself stays serial).
        self.executors = ExecutorPool(num_executors)
        #: Accumulators registered via SparkletContext.accumulator(); the
        #: scheduler commits their per-attempt buffers on task success only.
        self.accumulators: list[Any] = []
        #: Optional :class:`repro.memo.config.MemoSession` enabling
        #: lineage-hash memoization of job outputs.
        self.memo: Any | None = None


class Stage:
    """A pipelined set of narrow transformations ending at a boundary."""

    def __init__(self, stage_id: int, rdd: RDD, shuffle_dep: ShuffleDependency | None) -> None:
        self.stage_id = stage_id
        self.rdd = rdd
        #: The shuffle this stage writes (None for the final result stage).
        self.shuffle_dep = shuffle_dep
        self.parents: list["Stage"] = []

    @property
    def is_shuffle_map(self) -> bool:
        return self.shuffle_dep is not None

    def __repr__(self) -> str:  # pragma: no cover
        kind = "ShuffleMapStage" if self.is_shuffle_map else "ResultStage"
        return f"<{kind} {self.stage_id} rdd={self.rdd.name!r}>"


class DAGScheduler:
    """Builds the stage graph for an action and executes it."""

    def __init__(self, runtime: Runtime, max_task_retries: int = 3) -> None:
        self.runtime = runtime
        self.max_task_retries = max_task_retries
        #: Fetch-failure recovery waves tolerated per task before giving up.
        self.max_stage_recoveries = 8
        #: Task failures on one executor before it is blacklisted.
        self.blacklist_threshold = 2
        self._next_stage_id = 0
        self._next_job_id = 0
        #: shuffle_id -> Stage that produces it (reused across jobs, like
        #: Spark's map output tracker keeping completed shuffle stages).
        self._shuffle_stages: dict[int, Stage] = {}
        self._completed_shuffles: set[int] = set()
        #: shuffle_id -> map partition -> executor that produced the output.
        #: Mirrors Spark's MapOutputTracker; executor loss erases entries.
        self._map_outputs: dict[int, dict[int, str]] = {}
        #: stage_id -> number of times the stage has executed (attempt index).
        self._stage_attempts: dict[int, int] = {}
        self.job_history: list[JobMetrics] = []

    # -- stage graph construction ----------------------------------------
    def _new_stage(self, rdd: RDD, shuffle_dep: ShuffleDependency | None) -> Stage:
        stage = Stage(self._next_stage_id, rdd, shuffle_dep)
        self._next_stage_id += 1
        stage.parents = self._parent_stages(rdd)
        return stage

    def _parent_stages(self, rdd: RDD) -> list["Stage"]:
        """Find the shuffle-map stages this RDD's narrow chain depends on."""
        parents: list[Stage] = []
        seen: set[int] = set()
        stack: list[RDD] = [rdd]
        while stack:
            node = stack.pop()
            if node.rdd_id in seen:
                continue
            seen.add(node.rdd_id)
            for dep in node.deps:
                if isinstance(dep, ShuffleDependency):
                    parents.append(self._shuffle_map_stage(dep))
                else:
                    stack.append(dep.rdd)
        return parents

    def _shuffle_map_stage(self, dep: ShuffleDependency) -> Stage:
        stage = self._shuffle_stages.get(dep.shuffle_id)
        if stage is None:
            stage = self._new_stage(dep.rdd, dep)
            self._shuffle_stages[dep.shuffle_id] = stage
        return stage

    # -- shuffle output tracking ------------------------------------------
    def _missing_map_partitions(self, stage: Stage) -> list[int]:
        assert stage.shuffle_dep is not None
        registered = self._map_outputs.get(stage.shuffle_dep.shuffle_id, {})
        return [p for p in range(stage.rdd.num_partitions) if p not in registered]

    def _ensure_parent_shuffles(self, rdd: RDD, job: JobMetrics) -> None:
        """Regenerate any missing map outputs the given RDD reads.

        Loops until the shuffle is actually whole: a recomputation wave can
        itself lose an executor, invalidating map outputs that were healthy
        when the wave's todo list was computed.  Termination is guaranteed
        because executor-loss rules carry finite ``max_fires`` budgets.
        """
        for sid in _shuffle_reads_of(rdd):
            stage = self._shuffle_stages.get(sid)
            if stage is None:
                continue
            while True:
                missing = self._missing_map_partitions(stage)
                if not missing and sid in self._completed_shuffles:
                    break
                self._run_shuffle_map_stage(stage, job, missing or None)

    # -- execution ---------------------------------------------------------
    def run_job(
        self,
        rdd: RDD,
        func: Callable[[Iterator[Any]], Any],
        pool: str = DEFAULT_POOL,
    ) -> tuple[list[Any], JobMetrics]:
        final_stage = self._new_stage(rdd, None)
        job = JobMetrics(job_id=self._next_job_id, pool=pool)
        self._next_job_id += 1
        obs = self.runtime.obs

        # Topological order over the stage DAG (parents before children).
        order: list[Stage] = []
        visited: set[int] = set()

        def visit(stage: Stage) -> None:
            if stage.stage_id in visited:
                return
            visited.add(stage.stage_id)
            for parent in stage.parents:
                visit(parent)
            order.append(stage)

        visit(final_stage)

        # Lineage-hash memoization: a job whose full key hits the store
        # returns stored results (and replays accumulator deltas + metrics)
        # without executing anything — including JOB_START, so the event
        # stream of a skipped job is exactly one cache_hit.  Keys that fail
        # to compute (an unhashable closure) silently disable memo for this
        # job; memoization must never turn a runnable job into an error.
        memo = self.runtime.memo
        jkey: str | None = None
        if memo is not None:
            from repro.memo import hashing as memo_hashing

            try:
                jkey = memo_hashing.job_key(rdd, func)
            except Exception:
                memo = None
        if memo is not None and jkey is not None:
            entry = memo.store.get(jkey)
            if entry is not None and self._apply_job_hit(entry, order, job):
                self.job_history.append(job)
                if obs.enabled:
                    obs.emit(obs_events.CACHE_HIT, key=jkey, job_id=job.job_id)
                self.runtime.backend.on_job_end(self, job)
                return entry["results"], job

        if obs.enabled:
            obs.emit(obs_events.JOB_START, job_id=job.job_id, rdd=rdd.name,
                     pool=job.pool)
            if memo is not None:
                obs.emit(obs_events.CACHE_MISS, key=jkey, job_id=job.job_id)
        acc_before = self._acc_snapshot() if memo is not None else {}

        results: list[Any] = []
        for stage in order:
            if stage.is_shuffle_map:
                assert stage.shuffle_dep is not None
                missing = self._missing_map_partitions(stage)
                if not missing and stage.shuffle_dep.shuffle_id in self._completed_shuffles:
                    continue  # output still available from a previous job
                self._run_shuffle_map_stage(stage, job, missing or None)
            else:
                metrics, results = self._run_result_stage(stage, func, job)
                job.stages.append(metrics)
        self.job_history.append(job)
        if obs.enabled:
            obs.emit(obs_events.JOB_END, job_id=job.job_id,
                     n_stages=len(job.stages), n_tasks=job.num_tasks)
        self.runtime.backend.on_job_end(self, job)
        if (memo is not None and jkey is not None
                and job.total_failures == 0 and self._accs_replayable()):
            memo.store.put(jkey, {
                "results": results,
                "job": job,
                "acc_deltas": self._acc_deltas(acc_before),
            })
        return results, job

    # -- memoization --------------------------------------------------------
    def _apply_job_hit(self, entry: dict, order: list[Stage], job: JobMetrics) -> bool:
        """Replay a stored job: accumulator deltas + metrics, no execution."""
        if not self._apply_acc_deltas(entry.get("acc_deltas", {})):
            return False
        self._mark_committed(order)
        stored = entry.get("job")
        if stored is not None:
            job.stages.extend(stored.stages)
        return True

    def _mark_committed(self, stages: list[Stage]) -> None:
        """Pre-commit the logical tasks of a replayed job's stages on every
        accumulator, so a later job that computes one of those (shared)
        shuffle-map stages cannot double-count adds the replayed delta
        already applied."""
        keys = {
            (stage.stage_id, p)
            for stage in stages
            for p in range(stage.rdd.num_partitions)
        }
        for acc in self.runtime.accumulators:
            acc._committed.update(keys)

    def _acc_snapshot(self) -> dict[str, Any]:
        """Current value per replayable accumulator, keyed by stable suffix."""
        import operator

        from repro.sparklet.shared import memo_suffix_of

        snap: dict[str, Any] = {}
        for acc in self.runtime.accumulators:
            if acc._op is operator.add and isinstance(acc._value, (int, float)):
                snap[memo_suffix_of(acc._id)] = acc._value
        return snap

    def _accs_replayable(self) -> bool:
        """True when every registered accumulator's adds can be replayed as
        a numeric delta — the precondition for storing any memo entry."""
        import operator

        return all(
            acc._op is operator.add and isinstance(acc._value, (int, float))
            for acc in self.runtime.accumulators
        )

    def _acc_deltas(self, before: dict[str, Any]) -> dict[str, Any]:
        after = self._acc_snapshot()
        return {
            suffix: value - before.get(suffix, 0)
            for suffix, value in after.items()
            if value != before.get(suffix, 0)
        }

    def _apply_acc_deltas(self, deltas: dict[str, Any]) -> bool:
        """Apply stored deltas to matching live accumulators; all-or-nothing.

        A delta with no matching accumulator (the caller registered fewer
        accumulators than the recording run) makes the whole hit unusable —
        report False *before* mutating anything and the caller recomputes.
        """
        from repro.sparklet.shared import memo_suffix_of

        by_suffix = {
            memo_suffix_of(acc._id): acc for acc in self.runtime.accumulators
        }
        if any(suffix not in by_suffix for suffix in deltas):
            return False
        for suffix, delta in deltas.items():
            acc = by_suffix[suffix]
            acc._value = acc._op(acc._value, delta)
        return True

    # -- fault recovery ----------------------------------------------------
    def _recover_shuffle(self, shuffle_id: int, job: JobMetrics) -> None:
        """Fetch failure: invalidate the parent shuffle, re-run its stage."""
        if self.runtime.obs.enabled:
            self.runtime.obs.emit(obs_events.SHUFFLE_RECOVER, shuffle_id=shuffle_id)
        self._completed_shuffles.discard(shuffle_id)
        self.runtime.shuffle.invalidate_shuffle(shuffle_id)
        self._map_outputs.pop(shuffle_id, None)
        parent = self._shuffle_stages.get(shuffle_id)
        if parent is not None:
            self._run_shuffle_map_stage(parent, job, None)

    def _handle_executor_loss(self, executor_id: str, stage: Stage, job: JobMetrics) -> None:
        """Executor loss: drop its map outputs, regenerate what's needed now."""
        replacement = self.runtime.executors.lose(executor_id)
        obs = self.runtime.obs
        if obs.enabled:
            obs.emit(obs_events.EXECUTOR_LOST, executor_id=executor_id,
                     stage_id=stage.stage_id)
            obs.emit(obs_events.EXECUTOR_ADDED, executor_id=replacement,
                     replaces=executor_id)
        for sid, outputs in self._map_outputs.items():
            lost = [p for p, ex in outputs.items() if ex == executor_id]
            for p in lost:
                del outputs[p]
                self.runtime.shuffle.invalidate_map_output(sid, p)
            if lost:
                self._completed_shuffles.discard(sid)
        # Affected shuffles regenerate lazily: every task attempt re-checks
        # its parent map outputs before running (see begin_attempt).

    # -- the task-attempt protocol ------------------------------------------
    # Backends own how a task body runs (inline, or ship / wait / collect);
    # these three steps own everything else about an attempt, so serial and
    # parallel runs place, publish, count and retry identically.
    def begin_attempt(self, stage: Stage, sm: StageMetrics, job: JobMetrics,
                      st: TaskAttempt, shuffle_reads: tuple[int, ...]) -> bool:
        """Open the next attempt of ``st``: place it, publish it, consult
        the fault injectors.

        Returns False when an injected fault consumed the attempt — it has
        already been through :meth:`attempt_failed`, the caller just
        retries.
        """
        st.attempt += 1
        # A recovery wave can itself be interrupted (e.g. an executor dies
        # while re-running the parent map stage), leaving holes in a
        # shuffle this task is about to fetch.  Re-check parent map
        # outputs before every attempt, like a reducer consulting the
        # MapOutputTracker; it is a no-op when the shuffle is whole.
        if shuffle_reads:
            self._ensure_parent_shuffles(stage.rdd, job)
        runtime = self.runtime
        st.executor_id = runtime.executors.pick(
            st.partition, st.attempt, pool_salt(job.pool)
        )
        obs = runtime.obs
        if obs.enabled:
            obs.emit(obs_events.TASK_START, stage_id=sm.stage_id,
                     attempt=sm.attempt, partition=st.partition,
                     task_attempt=st.attempt, executor_id=st.executor_id)
        try:
            if runtime.failure_injector is not None:
                runtime.failure_injector(stage.stage_id, st.partition, st.attempt)
            if runtime.fault_injector is not None:
                runtime.fault_injector.on_task_start(
                    stage.stage_id, st.partition, st.attempt, st.executor_id,
                    shuffle_reads,
                )
        except RECOVERABLE_FAILURES as exc:
            self.attempt_failed(stage, sm, job, st, exc)
            return False
        return True

    def attempt_succeeded(self, stage: Stage, sm: StageMetrics,
                          st: TaskAttempt, task: TaskMetrics) -> None:
        """Close a successful attempt: commit its accumulator adds exactly
        once, publish TASK_END, record the task (and, for a map task, which
        executor now holds its output)."""
        task.attempts = st.attempt
        task.executor_id = st.executor_id
        task_key = (stage.stage_id, st.partition)
        for acc in self.runtime.accumulators:
            acc._commit_attempt(task_key)
        obs = self.runtime.obs
        if obs.enabled:
            obs.emit(obs_events.TASK_END, stage_id=sm.stage_id,
                     attempt=sm.attempt, task=task.to_dict())
        sm.tasks.append(task)
        if stage.shuffle_dep is not None:
            self._map_outputs.setdefault(
                stage.shuffle_dep.shuffle_id, {}
            )[st.partition] = st.executor_id

    def attempt_failed(self, stage: Stage, sm: StageMetrics, job: JobMetrics,
                       st: TaskAttempt, exc: BaseException) -> None:
        """Record a failed attempt and recover; returns when the task may be
        retried, re-raises ``exc`` when its budget is spent.

        ``exc`` is one of :data:`RECOVERABLE_FAILURES` — injected, raised by
        the task body, or synthesized by a backend for a worker process
        that really died.
        """
        for acc in self.runtime.accumulators:
            acc._abort_attempt()
        obs = self.runtime.obs
        if isinstance(exc, FetchFailedException):
            sm.n_fetch_failures += 1
            self._record_task_failure(sm, st, "fetch_failure")
            st.recoveries += 1
            if st.recoveries > self.max_stage_recoveries:
                raise exc
            self._recover_shuffle(exc.shuffle_id, job)
            return
        if isinstance(exc, ExecutorLostFailure):
            sm.n_executor_lost += 1
            self._record_task_failure(sm, st, "executor_loss")
            self._handle_executor_loss(exc.executor_id, stage, job)
        else:
            sm.n_task_failures += 1
            self._record_task_failure(sm, st, "task_crash")
            blacklisted = self.runtime.executors.record_failure(
                st.executor_id, self.blacklist_threshold
            )
            if blacklisted and obs.enabled:
                obs.emit(obs_events.EXECUTOR_BLACKLISTED, executor_id=st.executor_id)
        if st.attempt > self.max_task_retries:
            raise exc

    def _record_task_failure(self, sm: StageMetrics, st: TaskAttempt,
                             kind: str) -> None:
        """Publish one task-attempt failure to the event log."""
        obs = self.runtime.obs
        if obs.enabled:
            obs.emit(obs_events.TASK_FAILURE, stage_id=sm.stage_id,
                     attempt=sm.attempt, partition=st.partition,
                     task_attempt=st.attempt, executor_id=st.executor_id,
                     kind=kind)

    def _run_shuffle_map_stage(
        self, stage: Stage, job: JobMetrics, partitions: list[int] | None = None
    ) -> StageMetrics:
        dep = stage.shuffle_dep
        assert dep is not None
        # Inputs this stage reads must themselves be whole (recomputation
        # recurses up the lineage, like Spark resubmitting ancestor stages).
        self._ensure_parent_shuffles(stage.rdd, job)
        attempt = self._stage_attempts.get(stage.stage_id, 0)
        self._stage_attempts[stage.stage_id] = attempt + 1
        sm = StageMetrics(
            stage.stage_id,
            f"shuffle-map({stage.rdd.name})",
            is_shuffle_map=True,
            attempt=attempt,
        )
        obs = self.runtime.obs
        if obs.enabled:
            obs.emit(obs_events.STAGE_START, stage_id=sm.stage_id, attempt=sm.attempt,
                     name=sm.name, is_shuffle_map=True,
                     n_partitions=stage.rdd.num_partitions)
        todo = partitions if partitions is not None else list(range(stage.rdd.num_partitions))
        shuffle_reads = tuple(_shuffle_reads_of(stage.rdd))
        stage_span = (
            obs.tracer.span("stage", stage_id=sm.stage_id, attempt=sm.attempt,
                            kind="shuffle_map")
            if obs.enabled
            else nullcontext()
        )
        with stage_span:
            self.runtime.backend.run_map_stage(
                self, stage, dep, todo, sm, job, shuffle_reads
            )

        if not self._missing_map_partitions(stage):
            self._completed_shuffles.add(dep.shuffle_id)
        if obs.enabled:
            obs.emit(obs_events.STAGE_END, stage_id=sm.stage_id, attempt=sm.attempt,
                     n_tasks=len(sm.tasks), shuffle_write_bytes=sm.total_shuffle_write)
        job.stages.append(sm)
        return sm

    def _run_result_stage(
        self,
        stage: Stage,
        func: Callable[[Iterator[Any]], Any],
        job: JobMetrics,
    ) -> tuple[StageMetrics, list[Any]]:
        attempt = self._stage_attempts.get(stage.stage_id, 0)
        self._stage_attempts[stage.stage_id] = attempt + 1
        sm = StageMetrics(stage.stage_id, f"result({stage.rdd.name})", attempt=attempt)
        obs = self.runtime.obs
        if obs.enabled:
            obs.emit(obs_events.STAGE_START, stage_id=sm.stage_id, attempt=sm.attempt,
                     name=sm.name, is_shuffle_map=False,
                     n_partitions=stage.rdd.num_partitions)
        todo = list(range(stage.rdd.num_partitions))
        shuffle_reads = tuple(_shuffle_reads_of(stage.rdd))

        stage_span = (
            obs.tracer.span("stage", stage_id=sm.stage_id, attempt=sm.attempt,
                            kind="result")
            if obs.enabled
            else nullcontext()
        )
        with stage_span:
            results = self.runtime.backend.run_result_stage(
                self, stage, func, todo, sm, job, shuffle_reads
            )
        if obs.enabled:
            obs.emit(obs_events.STAGE_END, stage_id=sm.stage_id, attempt=sm.attempt,
                     n_tasks=len(sm.tasks), shuffle_write_bytes=0)
        return sm, results


def _shuffle_reads_of(rdd: RDD) -> list[int]:
    """Shuffle ids read directly by this stage's narrow chain."""
    out: list[int] = []
    seen: set[int] = set()
    stack = [rdd]
    while stack:
        node = stack.pop()
        if node.rdd_id in seen:
            continue
        seen.add(node.rdd_id)
        for dep in node.deps:
            if isinstance(dep, ShuffleDependency):
                out.append(dep.shuffle_id)
            else:
                stack.append(dep.rdd)
    return out
