"""Execution backends for the DAG scheduler: serial and parallel.

The scheduler owns stage construction, fault recovery, metrics and the
task-attempt protocol (``begin_attempt`` / ``attempt_succeeded`` /
``attempt_failed``: placement, injector consultation, task events,
counters, the retry budget).  A *backend* owns only how the body of an
attempt gets executed:

- :class:`SerialBackend` — the reference engine: every task body runs
  inline in the driver, in partition order.
- :class:`ParallelBackend` — a pool of long-lived spawn-context worker
  processes executes task bodies concurrently.  Stage payloads (RDD
  lineage + closures) ship once per (stage, worker) via cloudpickle; column
  batches travel through shared memory (:mod:`repro.sparklet.shm`); shuffle
  map outputs stay in shared memory and reducers merge buckets in sorted
  map-partition order, so results are byte-identical to serial.  Its
  ``_run_stage`` is the one ship / wait / collect loop in the repo —
  :class:`~repro.core.multithreaded.MultithreadedRapid` fans its callables
  out as an ordinary result stage on a parallel context.

Modelled cluster time is not a backend: it has exactly one spelling,
``simulate_job(job_metrics, ClusterConfig(...))``
(:mod:`repro.sparklet.simulation`), applied to the metrics either backend
records.

Determinism in parallel mode comes from three rules: task → worker
placement is ``partition % num_workers`` (stable across jobs, so worker
caches behave like the serial cache), reduce-side merge order is sorted by
map partition (same rule the serial shuffle uses), and result-stage outputs
are reassembled in partition order regardless of completion order.
Accumulator adds are buffered worker-side per attempt and committed by the
scheduler under the same ``(stage, partition)`` exactly-once key as serial.

Fault injection stays driver-side: injectors are consulted when an attempt
begins, before its body is shipped, so the chaos law (faulted ≡ clean
output) holds under the parallel backend too.  A real worker-process death
is detected by liveness polling and the worker is respawned; each of its
in-flight attempts fails as an
:class:`~repro.sparklet.faults.ExecutorLostFailure` through the same
``attempt_failed`` step — same recovery, same ``max_task_retries`` budget —
so a task that kills its worker on every attempt fails the job instead of
respawning forever.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import os
import pickle
import queue
import signal
import time
import traceback
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import cloudpickle

#: ``BACKENDS`` and the REPRO_* env vars live in :mod:`repro.execution`,
#: the one place the unified execution surface is defined and resolved.
from repro.execution import BACKENDS
from repro.obs import events as obs_events
from repro.obs.session import NULL_OBS
from repro.sparklet import shm as shm_mod
from repro.sparklet.faults import (
    RECOVERABLE_FAILURES,
    ExecutorLostFailure,
    TaskAttempt,
)
from repro.sparklet.metrics import TaskMetrics, estimate_bytes
from repro.sparklet.shuffle import ShuffleManager

__all__ = [
    "BACKENDS",
    "ParallelBackend",
    "SerialBackend",
    "ShmShuffleManager",
    "get_pool",
    "make_backend",
    "shutdown_pool",
]

_IN_WORKER = False
_WORKER_ACCS: dict[Any, Any] | None = None

#: Partitions a worker keeps in its local RDD cache (LRU).
_WORKER_CACHE_CAP = 256


def worker_accumulator_registry() -> dict[Any, Any] | None:
    """Worker-side accumulator instances keyed by accumulator id, or None
    in the driver.  Unpickling an Accumulator resolves through this so every
    task in a worker shares one instance per logical accumulator."""
    return _WORKER_ACCS


# ---------------------------------------------------------------------------
# Task bodies shared by the serial path and the workers
# ---------------------------------------------------------------------------
@dataclass
class MapTaskOutput:
    #: (reduce_partition, records, nbytes) in first-touch order; a worker
    #: ships each bucket's records back as a shared-memory blob instead.
    buckets: list[tuple[int, Any, int]]
    duration_s: float
    records_in: int
    records_out: int
    bytes_in: int

    def metrics(self, stage: Any, split: int, written: int) -> TaskMetrics:
        return TaskMetrics(
            stage_id=stage.stage_id,
            partition=split,
            duration_s=self.duration_s,
            records_in=self.records_in,
            records_out=self.records_out,
            bytes_in=self.bytes_in,
            bytes_out=written,
            shuffle_write_bytes=written,
            locality=stage.rdd.preferred_locations(split),
        )


def compute_map_task(rdd: Any, dep: Any, split: int, runtime: Any) -> MapTaskOutput:
    """Compute one shuffle-map task's buckets (no side effects on storage)."""
    t0 = time.perf_counter()
    records = list(rdd.iterator(split, runtime))
    buckets: dict[int, list[Any]] = {}
    bucket_weights: dict[int, int] = {}  # input records feeding each bucket
    part = dep.partitioner
    if dep.map_side_combine and dep.aggregator is not None:
        agg = dep.aggregator
        combined: dict[Any, Any] = {}
        key_counts: dict[Any, int] = {}
        for k, v in records:
            combined[k] = (
                agg.merge_value(combined[k], v)
                if k in combined
                else agg.create_combiner(v)
            )
            key_counts[k] = key_counts.get(k, 0) + 1
        for k, c in combined.items():
            idx = part.partition_for(k)
            buckets.setdefault(idx, []).append((k, c))
            bucket_weights[idx] = bucket_weights.get(idx, 0) + key_counts[k]
    else:
        for rec in records:
            idx = part.partition_for(rec[0])
            buckets.setdefault(idx, []).append(rec)
            bucket_weights[idx] = bucket_weights.get(idx, 0) + 1
    duration = time.perf_counter() - t0
    # Size estimation happens outside the timed region (it is
    # instrumentation, not work the real engine would do), and once per
    # task: buckets are sized by the input bytes they carry.
    bytes_in = estimate_bytes(records)
    n_out = sum(len(v) for v in buckets.values())
    avg = bytes_in / len(records) if records else 0.0
    sized = [
        (idx, items, max(1, int(avg * bucket_weights[idx])))
        for idx, items in buckets.items()
    ]
    return MapTaskOutput(sized, duration, len(records), n_out, bytes_in)


@dataclass
class ResultTaskOutput:
    #: The partition's value; a worker ships it back as a shared-memory blob.
    result: Any
    duration_s: float
    records_in: int
    bytes_in: int
    shuffle_read_bytes: int

    def metrics(self, stage: Any, split: int) -> TaskMetrics:
        return TaskMetrics(
            stage_id=stage.stage_id,
            partition=split,
            duration_s=self.duration_s,
            records_in=self.records_in,
            records_out=self.records_in,
            bytes_in=self.bytes_in,
            shuffle_read_bytes=self.shuffle_read_bytes,
            locality=stage.rdd.preferred_locations(split),
        )


def compute_result_task(
    rdd: Any,
    func: Callable[[Iterator[Any]], Any],
    split: int,
    runtime: Any,
    shuffle_reads: tuple[int, ...],
) -> ResultTaskOutput:
    t0 = time.perf_counter()
    records = list(rdd.iterator(split, runtime))
    out = func(iter(records))
    duration = time.perf_counter() - t0
    sread = sum(runtime.shuffle.fetch_bytes(sid, split) for sid in shuffle_reads)
    bytes_in = estimate_bytes(records)
    return ResultTaskOutput(out, duration, len(records), bytes_in, sread)


# ---------------------------------------------------------------------------
# Serial backend
# ---------------------------------------------------------------------------
class SerialBackend:
    """Reference engine: tasks run inline in the driver, in partition order."""

    name = "serial"

    def run_map_stage(self, sched, stage, dep, todo, sm, job, shuffle_reads) -> None:
        for split in todo:
            def body(split: int = split) -> TaskMetrics:
                out = compute_map_task(stage.rdd, dep, split, sched.runtime)
                written = 0
                for reduce_idx, items, nb in out.buckets:
                    written += sched.runtime.shuffle.write(
                        dep.shuffle_id, reduce_idx, items,
                        nbytes=nb, map_partition=split,
                    )
                return out.metrics(stage, split, written)

            self._run_inline(sched, stage, split, body, sm, job, shuffle_reads)

    def run_result_stage(self, sched, stage, func, todo, sm, job, shuffle_reads) -> list[Any]:
        results: list[Any] = []
        for split in todo:
            def body(split: int = split) -> TaskMetrics:
                out = compute_result_task(
                    stage.rdd, func, split, sched.runtime, shuffle_reads
                )
                results.append(out.result)
                return out.metrics(stage, split)

            self._run_inline(sched, stage, split, body, sm, job, shuffle_reads)
        return results

    def _run_inline(self, sched, stage, split, body, sm, job, shuffle_reads) -> None:
        """Run one task to success in the driver, attempt after attempt."""
        runtime = sched.runtime
        obs = runtime.obs
        st = TaskAttempt(split)
        while True:
            if not sched.begin_attempt(stage, sm, job, st, shuffle_reads):
                continue
            # The driver's accumulators are live while the body runs inline.
            for acc in runtime.accumulators:
                acc._begin_attempt()
            try:
                if obs.enabled:
                    with obs.tracer.span("task", stage_id=sm.stage_id,
                                         partition=split, attempt=st.attempt):
                        task = body()
                else:
                    task = body()
            except RECOVERABLE_FAILURES as exc:
                sched.attempt_failed(stage, sm, job, st, exc)
                continue
            sched.attempt_succeeded(stage, sm, st, task)
            return

    def on_job_end(self, sched, job) -> None:
        pass

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Shared-memory shuffle manager (parallel mode)
# ---------------------------------------------------------------------------
class ShmShuffleManager(ShuffleManager):
    """Shuffle storage holding encoded shared-memory bucket refs.

    Map tasks encode all their buckets into one segment worker-side; the
    driver stores the (tiny) :class:`~repro.sparklet.shm.Blob` handles
    without decoding and ships the sorted refs to reduce tasks.  Segment
    release is *deferred* to job end: invalidation (executor loss, fetch
    failure) replaces the refs immediately but in-flight tasks that already
    hold the old refs can still attach them — their content is identical
    (map tasks are deterministic), so late readers stay byte-correct.
    """

    def __init__(self, owner: str = "", obs=NULL_OBS) -> None:
        super().__init__()
        self._owner = owner
        self.obs = obs
        #: segment name -> number of live buckets referencing it.
        self._seg_refs: dict[str, int] = {}
        self._deferred: list[str] = []

    # -- segment bookkeeping ------------------------------------------------
    def adopt_segment(self, name: str, size: int) -> None:
        shm_mod.registry.register(name, size, owner=self._owner)
        if self.obs.enabled:
            self.obs.emit(obs_events.SHM_SEGMENT_CREATED, name=name,
                          nbytes=size, role="shuffle")

    def _drop_entry(self, entry: tuple[Any, int]) -> None:
        rec, _nb = entry
        if rec.segment is not None:
            left = self._seg_refs.get(rec.segment, 0) - 1
            if left <= 0:
                self._seg_refs.pop(rec.segment, None)
                self._deferred.append(rec.segment)
            else:
                self._seg_refs[rec.segment] = left

    def write_ref(self, shuffle_id: int, reduce_partition: int, blob: shm_mod.Blob,
                  nbytes: int, map_partition: int) -> int:
        reducers = self._buckets.setdefault(shuffle_id, {})
        bucket = reducers.setdefault(reduce_partition, {})
        prev = bucket.get(map_partition)
        if prev is not None:
            self._drop_entry(prev)
        bucket[map_partition] = (blob, nbytes)
        if blob.segment is not None:
            self._seg_refs[blob.segment] = self._seg_refs.get(blob.segment, 0) + 1
        return nbytes

    def bucket_refs(self, shuffle_id: int, reduce_partition: int
                    ) -> tuple[list[shm_mod.Blob], int]:
        """Sorted-by-map-partition bucket refs + total bytes for one reducer."""
        buckets = self._buckets.get(shuffle_id, {}).get(reduce_partition)
        if not buckets:
            return [], 0
        refs: list[shm_mod.Blob] = []
        total = 0
        for map_partition in sorted(buckets):
            rec, nb = buckets[map_partition]
            refs.append(rec)
            total += nb
        return refs, total

    # -- base API over blob entries -----------------------------------------
    def fetch(self, shuffle_id: int, reduce_partition: int) -> list[Any]:
        buckets = self._buckets.get(shuffle_id, {}).get(reduce_partition)
        if not buckets:
            return []
        out: list[Any] = []
        for map_partition in sorted(buckets):
            rec, _nb = buckets[map_partition]
            out.extend(shm_mod.decode(rec))
        return out

    def invalidate_map_output(self, shuffle_id: int, map_partition: int) -> None:
        for buckets in self._buckets.get(shuffle_id, {}).values():
            entry = buckets.pop(map_partition, None)
            if entry is not None:
                self._drop_entry(entry)

    def invalidate_shuffle(self, shuffle_id: int) -> None:
        reducers = self._buckets.pop(shuffle_id, None)
        if reducers:
            for buckets in reducers.values():
                for entry in buckets.values():
                    self._drop_entry(entry)
        for key in [k for k in self._auto_keys if k[0] == shuffle_id]:
            del self._auto_keys[key]

    def release_deferred(self) -> int:
        """Unlink segments whose buckets were invalidated (call at job end)."""
        released = 0
        for name in self._deferred:
            if shm_mod.registry.release(name):
                released += 1
            if self.obs.enabled:
                self.obs.emit(obs_events.SHM_SEGMENT_RELEASED, name=name,
                              role="shuffle")
        self._deferred.clear()
        return released

    def release_all(self) -> None:
        """Drop every bucket and unlink every segment (context close)."""
        for name in list(self._seg_refs):
            self._deferred.append(name)
        self._seg_refs.clear()
        super().clear()
        self.release_deferred()

    def clear(self) -> None:
        self.release_all()


# ---------------------------------------------------------------------------
# Worker pool (driver side)
# ---------------------------------------------------------------------------
@contextmanager
def _spawnable_main() -> Iterator[None]:
    """Hide a phantom ``__main__.__file__`` while spawning a worker.

    A driver fed through stdin (``python - <<EOF``, REPLs) has
    ``__main__.__file__ == "<stdin>"``; spawn's preparation step would try
    to re-run that path in the child and kill every worker at boot.
    Workers never need the parent's ``__main__`` — task closures arrive
    via cloudpickle — so when the recorded path does not exist on disk we
    drop it for the duration of ``Process.start()``.
    """
    import sys

    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    if main is None or path is None or os.path.exists(path):
        yield
        return
    del main.__file__
    try:
        yield
    finally:
        main.__file__ = path


class _WorkerHandle:
    __slots__ = ("worker_id", "proc", "task_q", "outstanding", "shipped")

    def __init__(self, worker_id: int, proc, task_q) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.task_q = task_q
        self.outstanding: set[int] = set()
        self.shipped: set[str] = set()


class WorkerPool:
    """Process-global pool of long-lived spawn workers, grown on demand.

    One pool serves every parallel context in the process (spawn cost is
    paid once); per-context state inside workers is namespaced by the
    context uid and evicted on context close.
    """

    def __init__(self) -> None:
        self._mp = mp.get_context("spawn")
        self.prefix = shm_mod.run_prefix()
        self._result_q = self._mp.Queue()
        self._workers: dict[int, _WorkerHandle] = {}
        self._tokens = itertools.count(1)
        self._pending: dict[int, tuple] = {}
        self._discarded: set[int] = set()
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------
    def ensure(self, n: int, obs=NULL_OBS) -> None:
        for wid in range(n):
            if not self.alive(wid):
                self._spawn(wid, obs)

    def alive(self, wid: int) -> bool:
        handle = self._workers.get(wid)
        return handle is not None and handle.proc.is_alive()

    def worker_pids(self) -> dict[int, int]:
        return {wid: h.proc.pid for wid, h in self._workers.items()}

    def _spawn(self, wid: int, obs=NULL_OBS) -> _WorkerHandle:
        old = self._workers.get(wid)
        if old is not None:
            self._reap(old, obs)
        task_q = self._mp.Queue()
        proc = self._mp.Process(
            target=_worker_main,
            args=(wid, self.prefix, task_q, self._result_q),
            daemon=True,
            name=f"sparklet-worker-{wid}",
        )
        with _spawnable_main():
            proc.start()
        handle = _WorkerHandle(wid, proc, task_q)
        self._workers[wid] = handle
        if obs.enabled:
            obs.emit(obs_events.WORKER_SPAWNED, worker_id=wid, pid=proc.pid)
        return handle

    def _reap(self, handle: _WorkerHandle, obs=NULL_OBS) -> None:
        """Fold a dead worker: synthesize loss results, drop its queue."""
        if obs.enabled:
            obs.emit(obs_events.WORKER_EXITED, worker_id=handle.worker_id,
                     pid=handle.proc.pid, exitcode=handle.proc.exitcode)
        for token in handle.outstanding:
            self._pending[token] = ("lost", token, handle.worker_id)
        handle.outstanding.clear()
        try:
            handle.task_q.close()
            handle.task_q.cancel_join_thread()
        except Exception:
            pass

    def check_liveness(self, obs=NULL_OBS) -> None:
        for wid, handle in list(self._workers.items()):
            if not handle.proc.is_alive():
                self._spawn(wid, obs)

    # -- messaging ----------------------------------------------------------
    def ship_payload(self, wid: int, key: str, blob: shm_mod.Blob) -> None:
        handle = self._workers[wid]
        if key not in handle.shipped:
            handle.task_q.put(("payload", key, blob))
            handle.shipped.add(key)

    def dispatch(self, wid: int, key: str, split: int, fetch_blobs, fetch_nbytes) -> int:
        token = next(self._tokens)
        handle = self._workers[wid]
        handle.task_q.put(("task", token, key, split, fetch_blobs, fetch_nbytes))
        handle.outstanding.add(token)
        return token

    def evict(self, ctx_uid: str) -> None:
        for handle in self._workers.values():
            if handle.proc.is_alive():
                try:
                    handle.task_q.put(("evict", ctx_uid))
                except Exception:
                    pass

    def wait_any(self, tokens: set[int], obs=NULL_OBS,
                 timeout: float = 600.0) -> tuple[int, tuple]:
        """Block until any of ``tokens`` completes; respawns dead workers.

        Results for tokens outside the set (an enclosing stage's tasks, a
        recovery wave's) are parked in ``_pending`` for their own waiters —
        this is what makes nested stage runs on one shared pool safe.
        """
        deadline = time.monotonic() + timeout
        while True:
            for token in tokens:
                if token in self._pending:
                    return token, self._pending.pop(token)
            try:
                msg = self._result_q.get(timeout=0.1)
            except queue.Empty:
                self.check_liveness(obs)
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"parallel backend: none of {len(tokens)} tasks "
                        f"completed within {timeout:.0f}s"
                    ) from None
                continue
            token = msg[1]
            handle = self._workers.get(msg[2])
            if handle is not None:
                handle.outstanding.discard(token)
            if token in self._discarded:
                self._discarded.discard(token)
                for name, _size in _msg_segments(msg):
                    shm_mod._unlink(name)
                continue
            self._pending[token] = msg

    def discard(self, tokens) -> None:
        """Forget tasks an aborted stage run will never collect."""
        for token in tokens:
            msg = self._pending.pop(token, None)
            if msg is not None:
                for name, _size in _msg_segments(msg):
                    shm_mod._unlink(name)
                continue
            still_out = any(token in h.outstanding for h in self._workers.values())
            if still_out:
                self._discarded.add(token)

    def shutdown(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for handle in self._workers.values():
            if handle.proc.is_alive():
                try:
                    handle.task_q.put(("stop",))
                except Exception:
                    pass
        for handle in self._workers.values():
            handle.proc.join(timeout=3.0)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=1.0)
            try:
                handle.task_q.close()
                handle.task_q.cancel_join_thread()
            except Exception:
                pass
        try:
            self._result_q.close()
            self._result_q.cancel_join_thread()
        except Exception:
            pass
        self._workers.clear()
        self._pending.clear()


def _msg_segments(msg: tuple) -> list[tuple[str, int]]:
    """Worker-created segments carried by a result message, if any."""
    return msg[5] if msg[0] == "ok" else []


_POOL: WorkerPool | None = None


def get_pool() -> WorkerPool:
    global _POOL
    if _POOL is None or _POOL._stopped:
        _POOL = WorkerPool()
    return _POOL


def shutdown_pool() -> None:
    """Stop every worker (idempotent; also runs at interpreter exit)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def _atexit_cleanup() -> None:
    shutdown_pool()
    shm_mod.cleanup_all()


atexit.register(_atexit_cleanup)

_DRIVER_SEG = itertools.count()


def _driver_seg_name() -> str:
    return f"{shm_mod.run_prefix()}d{next(_DRIVER_SEG)}"


# ---------------------------------------------------------------------------
# Parallel backend (driver side)
# ---------------------------------------------------------------------------
class ParallelBackend:
    """Dispatches stage tasks onto the shared worker pool."""

    name = "parallel"

    def __init__(self, ctx_uid: str, num_workers: int = 2, obs=NULL_OBS) -> None:
        self.ctx_uid = ctx_uid
        self.num_workers = max(1, int(num_workers))
        self.obs = obs
        self._payload_blobs: dict[str, shm_mod.Blob] = {}
        self._closed = False

    # -- stage entry points -------------------------------------------------
    def run_map_stage(self, sched, stage, dep, todo, sm, job, shuffle_reads) -> None:
        def collect(split: int, out: MapTaskOutput, segs) -> TaskMetrics:
            mgr = sched.runtime.shuffle
            for name, size in segs:
                mgr.adopt_segment(name, size)
            written = 0
            for reduce_idx, blob, nb in out.buckets:
                written += mgr.write_ref(dep.shuffle_id, reduce_idx, blob, nb,
                                         map_partition=split)
            return out.metrics(stage, split, written)

        self._run_stage(sched, stage, "map", dep, None, todo, sm, job,
                        shuffle_reads, collect)

    def run_result_stage(self, sched, stage, func, todo, sm, job, shuffle_reads) -> list[Any]:
        results: dict[int, Any] = {}

        def collect(split: int, out: ResultTaskOutput, segs) -> TaskMetrics:
            results[split] = shm_mod.decode(out.result)
            for name, _size in segs:
                shm_mod._unlink(name)  # one-shot: consumed by this decode
            return out.metrics(stage, split)

        self._run_stage(sched, stage, "result", None, func, todo, sm, job,
                        shuffle_reads, collect)
        return [results[split] for split in todo]

    # -- the dispatch loop --------------------------------------------------
    def _run_stage(self, sched, stage, kind, dep, func, todo, sm, job,
                   shuffle_reads, collect) -> None:
        """Ship every task of one stage run, wait, collect; retry failures.

        What an attempt *is* — placement, injectors, events, the retry
        budget — is the scheduler's protocol; this loop only moves bodies
        to workers and outputs back.
        """
        pool = get_pool()
        pool.ensure(self.num_workers, self.obs)
        key = f"{self.ctx_uid}:s{stage.stage_id}:{kind}"
        blob = self._payload_blob(key, stage, kind, dep, func, shuffle_reads)
        waiting: deque[TaskAttempt] = deque(TaskAttempt(split) for split in todo)
        outstanding: dict[int, TaskAttempt] = {}
        obs = self.obs
        try:
            while waiting or outstanding:
                while waiting:
                    st = waiting.popleft()
                    if not sched.begin_attempt(stage, sm, job, st, shuffle_reads):
                        waiting.append(st)
                        continue
                    split = st.partition
                    wid = split % self.num_workers
                    pool.check_liveness(obs)
                    pool.ship_payload(wid, key, blob)
                    fetch_blobs, fetch_nbytes = self._collect_fetch(
                        sched, split, shuffle_reads
                    )
                    token = pool.dispatch(wid, key, split, fetch_blobs, fetch_nbytes)
                    outstanding[token] = st
                if not outstanding:
                    continue
                token, msg = pool.wait_any(set(outstanding), obs)
                st = outstanding.pop(token)
                if msg[0] == "ok":
                    task = collect(st.partition, msg[3], msg[5])
                    task.worker_id = f"w{msg[2]}"
                    self._load_accs(sched, msg[4])
                    sched.attempt_succeeded(stage, sm, st, task)
                    continue
                if msg[0] == "lost":
                    # The worker process really died under this attempt.
                    exc: BaseException = ExecutorLostFailure(st.executor_id)
                else:
                    exc = pickle.loads(msg[3])
                    if not isinstance(exc, RECOVERABLE_FAILURES):
                        if hasattr(exc, "add_note"):
                            exc.add_note(f"worker {msg[2]} traceback:\n{msg[4]}")
                        raise exc
                sched.attempt_failed(stage, sm, job, st, exc)
                waiting.append(st)
        finally:
            if outstanding:
                pool.discard(list(outstanding))

    def _load_accs(self, sched, acc_bytes) -> None:
        """Load a finished attempt's worker-buffered accumulator adds into
        the driver's accumulators, for ``attempt_succeeded`` to commit."""
        updates = pickle.loads(acc_bytes) if acc_bytes else {}
        for acc in sched.runtime.accumulators:
            acc._begin_attempt()
            acc._pending.extend(updates.get(acc._id, ()))

    def _collect_fetch(self, sched, split, shuffle_reads):
        # Every narrow edge is one-to-one, so reduce partition ``split`` of
        # each shuffle the stage reads is all this task will fetch.
        blobs: dict[tuple[int, int], list[shm_mod.Blob]] = {}
        nbytes: dict[tuple[int, int], int] = {}
        # SparkletContext installs a ShmShuffleManager for this backend.
        mgr = sched.runtime.shuffle
        for sid in shuffle_reads:
            blobs[(sid, split)], nbytes[(sid, split)] = mgr.bucket_refs(sid, split)
        return blobs, nbytes

    def _payload_blob(self, key, stage, kind, dep, func, shuffle_reads) -> shm_mod.Blob:
        blob = self._payload_blobs.get(key)
        if blob is None:
            payload = {
                "kind": kind,
                "ctx_uid": self.ctx_uid,
                "rdd": stage.rdd,
                "dep": dep,
                "func": func,
                "shuffle_reads": tuple(shuffle_reads),
            }
            blob, seg, size = shm_mod.encode(payload, _driver_seg_name)
            if seg is not None:
                shm_mod.registry.register(seg, size, owner=self.ctx_uid)
                if self.obs.enabled:
                    self.obs.emit(obs_events.SHM_SEGMENT_CREATED, name=seg,
                                  nbytes=size, role="payload")
            self._payload_blobs[key] = blob
        return blob

    def on_job_end(self, sched, job) -> None:
        sched.runtime.shuffle.release_deferred()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._payload_blobs.clear()
        shm_mod.registry.release_owner(self.ctx_uid)
        if _POOL is not None and not _POOL._stopped:
            _POOL.evict(self.ctx_uid)


def make_backend(name: str, *, ctx_uid: str = "", num_workers: int = 2,
                 obs=NULL_OBS):
    """Build a backend by name ('serial' | 'parallel')."""
    if name == "serial":
        return SerialBackend()
    if name == "parallel":
        if _IN_WORKER:
            # A context constructed inside a worker (user code) must not
            # recursively spawn pools; run its jobs inline.
            return SerialBackend()
        return ParallelBackend(ctx_uid, num_workers, obs)
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
class _WorkerCacheProxy:
    """Context-namespaced LRU view over the worker's shared cache store."""

    def __init__(self, store: OrderedDict, ctx_uid: str,
                 cap: int = _WORKER_CACHE_CAP) -> None:
        self._store = store
        self._uid = ctx_uid
        self._cap = cap

    def get(self, key):
        full = (self._uid,) + key
        hit = self._store.get(full)
        if hit is not None:
            self._store.move_to_end(full)
        return hit

    def __setitem__(self, key, value) -> None:
        full = (self._uid,) + key
        self._store[full] = value
        self._store.move_to_end(full)
        while len(self._store) > self._cap:
            self._store.popitem(last=False)


class _FetchShuffle:
    """Reduce-side shuffle view over the refs shipped with one task.

    The driver pre-sorts refs by map partition, so extending in list order
    reproduces the serial manager's deterministic merge order exactly.
    """

    def __init__(self, blobs, nbytes) -> None:
        self._blobs = blobs
        self._nbytes = nbytes

    def fetch(self, shuffle_id: int, reduce_partition: int) -> list[Any]:
        refs = self._blobs.get((shuffle_id, reduce_partition))
        if refs is None:
            raise RuntimeError(
                f"worker task has no refs for shuffle {shuffle_id} "
                f"partition {reduce_partition} (fetch-analysis bug)"
            )
        out: list[Any] = []
        for blob in refs:
            out.extend(shm_mod.decode(blob))
        return out

    def fetch_bytes(self, shuffle_id: int, reduce_partition: int) -> int:
        return self._nbytes.get((shuffle_id, reduce_partition), 0)


class _WorkerRuntime:
    """The slice of Runtime that RDD.compute/iterator actually touches."""

    def __init__(self, shuffle: _FetchShuffle, cache: _WorkerCacheProxy) -> None:
        self.shuffle = shuffle
        self.cache = cache
        self.accumulators: list[Any] = []
        self.failure_injector = None
        self.fault_injector = None


def _err_msg(token: int, worker_id: int, exc: BaseException) -> tuple:
    tb = traceback.format_exc()
    try:
        payload = cloudpickle.dumps(exc)
        pickle.loads(payload)  # round-trip check: some exceptions don't rebuild
    except Exception:
        payload = cloudpickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    return ("err", token, worker_id, payload, tb)


def _run_task(worker_id, payloads, key, split, fetch_blobs, fetch_nbytes,
              cache, seg_name) -> tuple:
    """Execute one stage task; returns the tail of the ok-message."""
    payload = payloads.get(key)
    if payload is None:
        raise RuntimeError(f"worker missing stage payload {key!r}")
    if isinstance(payload, shm_mod.Blob):
        payload = shm_mod.decode(payload)
        payloads[key] = payload
    runtime = _WorkerRuntime(
        _FetchShuffle(fetch_blobs, fetch_nbytes),
        _WorkerCacheProxy(cache, payload["ctx_uid"]),
    )
    accs = list(_WORKER_ACCS.values()) if _WORKER_ACCS else []
    for acc in accs:
        acc._begin_attempt()
    try:
        if payload["kind"] == "map":
            out = compute_map_task(payload["rdd"], payload["dep"], split, runtime)
            writer = shm_mod.SegmentWriter(seg_name)
            for _idx, items, _nb in out.buckets:
                writer.add(items)
            bucket_blobs, seg, size = writer.seal()
            out.buckets = [
                (idx, bucket_blobs[i], nb)
                for i, (idx, _items, nb) in enumerate(out.buckets)
            ]
        else:
            out = compute_result_task(
                payload["rdd"], payload["func"], split, runtime,
                payload["shuffle_reads"],
            )
            out.result, seg, size = shm_mod.encode(out.result, seg_name)
        updates = {acc._id: list(acc._pending) for acc in accs if acc._pending}
        acc_bytes = cloudpickle.dumps(updates, protocol=5) if updates else None
    finally:
        for acc in accs:
            acc._abort_attempt()
    segs = [(seg, size)] if seg is not None else []
    return out, acc_bytes, segs


def _worker_main(worker_id: int, prefix: str, task_q, result_q) -> None:
    global _IN_WORKER, _WORKER_ACCS
    _IN_WORKER = True
    _WORKER_ACCS = {}
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover
        pass
    payloads: dict[str, Any] = {}
    cache: OrderedDict = OrderedDict()
    counter = itertools.count()

    def seg_name() -> str:
        return f"{prefix}w{worker_id}n{next(counter)}"

    while True:
        try:
            msg = task_q.get()
        except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
            break
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "payload":
            payloads[msg[1]] = msg[2]
        elif kind == "evict":
            uid = msg[1]
            for k in [k for k in payloads if k.startswith(uid + ":")]:
                del payloads[k]
            for k in [k for k in cache if k[0] == uid]:
                del cache[k]
            for k in [k for k in _WORKER_ACCS
                      if isinstance(k, str) and k.startswith(uid + ":")]:
                del _WORKER_ACCS[k]
        elif kind == "task":
            token = msg[1]
            try:
                body = _run_task(worker_id, payloads, msg[2], msg[3], msg[4],
                                 msg[5], cache, seg_name)
                result_q.put(("ok", token, worker_id) + body)
            except BaseException as exc:  # noqa: BLE001 - forwarded to driver
                result_q.put(_err_msg(token, worker_id, exc))
