"""SparkletContext: the driver entry point."""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.execution import resolve_execution
from repro.obs.session import ObsSession
from repro.sparklet import executor as executor_mod
from repro.sparklet.metrics import JobMetrics
from repro.sparklet.pools import DEFAULT_POOL
from repro.sparklet.rdd import RDD, ParallelCollectionRDD, TextFileRDD
from repro.sparklet.scheduler import DAGScheduler, Runtime

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfs import DFSClient
    from repro.memo.config import MemoSession
    from repro.obs import ObsConfig
    from repro.sparklet.faults import FaultConfig, FaultInjector

#: Distinguishes contexts within one driver process (namespaces worker-side
#: payload caches, RDD caches and accumulator ids on the shared pool).
_CTX_IDS = itertools.count(1)


class SparkletContext:
    """Owns the runtime (shuffle storage, cache) and the DAG scheduler.

    Mirrors ``SparkContext``: create RDDs with :meth:`parallelize` /
    :meth:`text_file`, run actions on them.  Job metrics for every executed
    action accumulate in :attr:`scheduler.job_history` and are what the
    cluster simulator consumes.

    ``backend`` selects the execution engine — ``"serial"`` (reference,
    default) or ``"parallel"`` (true multiprocessing over ``num_workers``
    long-lived worker processes with shared-memory transport).  When not
    given, the ``REPRO_BACKEND`` / ``REPRO_WORKERS`` environment variables
    decide — that is how CI runs the whole suite under the parallel
    backend.  Both backends produce byte-identical results on the same seed.
    """

    def __init__(self, app_name: str = "sparklet", default_parallelism: int = 4,
                 max_task_retries: int = 3, num_executors: int = 4,
                 fault_config: "FaultConfig | None" = None,
                 obs: "ObsConfig | ObsSession | None" = None,
                 backend: str | None = None,
                 num_workers: int | None = None,
                 memo: "MemoSession | None" = None) -> None:
        if default_parallelism < 1:
            raise ValueError("default_parallelism must be >= 1")
        self.app_name = app_name
        self.default_parallelism = default_parallelism
        self.uid = f"ctx{os.getpid():x}-{next(_CTX_IDS)}"
        if backend is None or num_workers is None:
            defaults = resolve_execution()
            backend = backend or defaults.backend
            if num_workers is None:
                num_workers = defaults.num_workers
        self.backend_name = backend
        self.num_workers = max(1, int(num_workers))
        #: Observability session; an existing ObsSession is shared (one event
        #: stream per run), an ObsConfig builds a fresh one, None is a no-op.
        self.obs = ObsSession.from_config(obs)
        engine = executor_mod.make_backend(
            self.backend_name,
            ctx_uid=self.uid,
            num_workers=self.num_workers,
            obs=self.obs,
        )
        self.runtime = Runtime(num_executors=num_executors, obs=self.obs,
                               backend=engine)
        if isinstance(engine, executor_mod.ParallelBackend):
            # Shuffle storage that keeps shared-memory bucket refs undecoded.
            self.runtime.shuffle = executor_mod.ShmShuffleManager(
                owner=self.uid, obs=self.obs
            )
        #: Lineage-hash memoization session (None: every job recomputes).
        self.memo = memo
        self.runtime.memo = memo
        self.scheduler = DAGScheduler(self.runtime, max_task_retries=max_task_retries)
        self._rdd_counter = 0
        self._shuffle_counter = 0
        self._closed = False
        #: Pool tag subsequent actions carry (Spark's ``spark.scheduler.pool``
        #: thread-local, flattened to the context): it lands on
        #: ``JobMetrics.pool`` and the ``job_start`` event and salts executor
        #: placement.  Fair *ordering* between pools is the serving tier's
        #: job (:class:`~repro.streaming.sessions.SessionManager`).
        self._current_pool = DEFAULT_POOL
        if fault_config is not None:
            self.install_faults(fault_config)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release backend state: shared-memory segments, worker-side caches.

        Idempotent.  The shared worker pool itself stays up (it serves every
        context in the process and is reaped at interpreter exit).
        """
        if self._closed:
            return
        self._closed = True
        shuffle = self.runtime.shuffle
        if isinstance(shuffle, executor_mod.ShmShuffleManager):
            shuffle.release_all()
        self.runtime.backend.close()

    def __enter__(self) -> "SparkletContext":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def install_faults(self, config: "FaultConfig") -> "FaultInjector":
        """Arm the seeded rule-driven fault injector for subsequent jobs."""
        from repro.sparklet.faults import FaultInjector

        injector = FaultInjector(config, obs=self.obs)
        self.runtime.fault_injector = injector
        self.scheduler.blacklist_threshold = config.max_failures_per_executor
        return injector

    # -- pool tag -------------------------------------------------------------
    def set_pool(self, name: str | None) -> None:
        """Tag subsequent actions with ``name`` (None restores the default)."""
        self._current_pool = name if name is not None else DEFAULT_POOL

    @property
    def current_pool(self) -> str:
        return self._current_pool

    @contextmanager
    def pool(self, name: str) -> Iterator[None]:
        """Scoped pool assignment: actions inside the block run on ``name``."""
        previous = self._current_pool
        self.set_pool(name)
        try:
            yield
        finally:
            self._current_pool = previous

    # -- id allocation (used by RDD/ShuffledRDD constructors) ---------------
    def _next_rdd_id(self) -> int:
        self._rdd_counter += 1
        return self._rdd_counter

    def _next_shuffle_id(self) -> int:
        self._shuffle_counter += 1
        return self._shuffle_counter

    # -- shared variables ---------------------------------------------------
    def accumulator(self, zero=0, op=None):
        """Create a task-side counter with exactly-once retry semantics."""
        import operator

        from repro.sparklet.shared import Accumulator

        self._accumulator_counter = getattr(self, "_accumulator_counter", 0) + 1
        # String ids namespaced by context uid: unambiguous in the worker-side
        # registry when several contexts share the process-wide pool.
        acc = Accumulator(f"{self.uid}:a{self._accumulator_counter}", zero,
                          op or operator.add)
        self.runtime.accumulators.append(acc)
        return acc

    # -- RDD creation ------------------------------------------------------
    def parallelize(self, data: Sequence[Any], num_partitions: int | None = None) -> RDD:
        if num_partitions is None:
            num_partitions = self.default_parallelism
        return ParallelCollectionRDD(self, data, num_partitions)

    def text_file(self, dfs: "DFSClient", path: str) -> RDD:
        return TextFileRDD(self, dfs, path)

    # -- job execution -----------------------------------------------------
    def _run_job(self, rdd: RDD, func: Callable[[Iterator[Any]], Any]) -> list[Any]:
        results, _job = self.scheduler.run_job(rdd, func, pool=self._current_pool)
        return results

    def last_job_metrics(self) -> JobMetrics:
        if not self.scheduler.job_history:
            raise RuntimeError("no job has run yet")
        return self.scheduler.job_history[-1]

    def all_job_metrics(self) -> JobMetrics:
        """All stages executed so far, merged into one JobMetrics."""
        merged = JobMetrics(job_id=-1)
        for job in self.scheduler.job_history:
            merged.stages.extend(job.stages)
        return merged

    def reset_metrics(self) -> None:
        self.scheduler.job_history.clear()
