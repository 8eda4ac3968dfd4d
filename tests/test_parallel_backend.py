"""The parallel executor backend: three-mode equivalence and shm hygiene.

The tentpole law of the backend is *byte identity*: on the same seed,
``backend="parallel"`` must produce exactly the output of the serial
reference — per-RDD-operation, for the full D-RAPID pipeline, for the
streaming engine, and under chaos fault injection.  Alongside it, segment
hygiene: every shared-memory segment a run creates is unlinked by the time
its context closes, even when a worker process is killed mid-task.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.execution import ExecutionConfig
from repro.sparklet import SparkletContext
from repro.sparklet import shm as shm_mod
from repro.sparklet.executor import (
    ParallelBackend,
    SerialBackend,
    ShmShuffleManager,
    make_backend,
)
from repro.sparklet.faults import FaultConfig

SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ints = st.lists(st.integers(-1000, 1000), max_size=60)

PARALLEL_2 = ExecutionConfig(backend="parallel", num_workers=2)


def par_ctx(workers: int = 2, **kwargs) -> SparkletContext:
    return SparkletContext(backend="parallel", num_workers=workers, **kwargs)


def no_leaks() -> bool:
    return shm_mod.live_segments() == []


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------
class TestBackendSelection:
    def test_make_backend_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("parallel", ctx_uid="t"), ParallelBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_context_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "parallel")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with SparkletContext() as ctx:
            assert ctx.backend_name == "parallel"
            assert ctx.num_workers == 3
            assert isinstance(ctx.runtime.shuffle, ShmShuffleManager)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "parallel")
        with SparkletContext(backend="serial") as ctx:
            assert isinstance(ctx.runtime.backend, SerialBackend)


# ---------------------------------------------------------------------------
# Operation-level parity (parallel vs serial oracle)
# ---------------------------------------------------------------------------
class TestOperationParity:
    @SETTINGS
    @given(data=ints, n=st.integers(1, 5), w=st.sampled_from([1, 2, 4]))
    def test_shuffle_parity(self, data, n, w):
        def job(ctx):
            return (ctx.parallelize(data, n)
                    .map(lambda x: (x % 7, x))
                    .reduce_by_key(lambda a, b: a + b, num_partitions=3)
                    .collect())

        with SparkletContext() as s, par_ctx(w) as p:
            assert job(p) == job(s)

    @SETTINGS
    @given(data=ints, n=st.integers(1, 5))
    def test_narrow_chain_parity(self, data, n):
        def job(ctx):
            rdd = ctx.parallelize(data, n).map(lambda x: x * 3).filter(
                lambda x: x % 2 == 0)
            return rdd.collect(), rdd.count()

        with SparkletContext() as s, par_ctx(2) as p:
            assert job(p) == job(s)

    def test_join_and_cache_parity(self):
        def job(ctx):
            left = ctx.parallelize([(i % 5, i) for i in range(60)], 4)
            right = ctx.parallelize([(k, chr(65 + k)) for k in range(5)], 2)
            joined = left.left_outer_join(right, num_partitions=3).cache()
            return joined.collect(), joined.collect(), joined.count()

        with SparkletContext() as s, par_ctx(3) as p:
            assert job(p) == job(s)

    def test_textfile_parity(self, dfs):
        lines = "".join(f"{i % 9},{i * i}\n" for i in range(800))
        dfs.put_text("/par/in.csv", lines)

        def job(ctx):
            return (ctx.text_file(dfs, "/par/in.csv")
                    .map(lambda ln: tuple(map(int, ln.split(","))))
                    .aggregate_by_key(0, lambda a, v: a + v, lambda a, b: a + b,
                                      num_partitions=3)
                    .collect())

        with SparkletContext() as s, par_ctx(2) as p:
            assert job(p) == job(s)

    def test_save_as_text_parity(self, dfs):
        def job(ctx, root):
            ctx.parallelize(range(50), 4).map(lambda x: f"row-{x}") \
               .save_as_text_file(dfs, root)
            return sorted(
                (p, dfs.get(p).decode()) for p in dfs.ls(f"{root}/part-")
            )

        with SparkletContext() as s, par_ctx(2) as p:
            a = job(s, "/out/serial")
            b = job(p, "/out/parallel")
        assert [(x[0].split("/")[-1], x[1]) for x in a] == \
               [(x[0].split("/")[-1], x[1]) for x in b]

    def test_accumulator_parity(self):
        def job(ctx):
            acc = ctx.accumulator(0)

            def f(x):
                acc.add(1)
                return (x % 4, x)

            rdd = ctx.parallelize(range(80), 4).map(f)
            out = rdd.reduce_by_key(lambda a, b: a + b).collect()
            cnt = rdd.count()
            return out, cnt, acc.value

        with SparkletContext() as s, par_ctx(2) as p:
            sa, sc, sv = job(s)
            pa, pc, pv = job(p)
        assert (pa, pc) == (sa, sc)
        assert pv == sv

    def test_worker_one_degrades_gracefully(self):
        with par_ctx(1) as p:
            got = p.parallelize(range(30), 3).map(lambda x: x + 1).collect()
        assert got == list(range(1, 31))


# ---------------------------------------------------------------------------
# Chaos: fault injection under the parallel backend
# ---------------------------------------------------------------------------
class TestParallelChaos:
    @SETTINGS
    @given(seed=st.integers(0, 30), w=st.sampled_from([1, 2, 4]))
    def test_faulted_parallel_equals_clean_serial(self, seed, w):
        def job(ctx):
            return (ctx.parallelize(range(200), 5)
                    .map(lambda x: (x % 11, x))
                    .reduce_by_key(lambda a, b: a + b, num_partitions=4)
                    .collect())

        with SparkletContext() as s:
            clean = job(s)
        with par_ctx(w, fault_config=FaultConfig.chaos(seed=seed),
                     max_task_retries=8) as p:
            faulted = job(p)
        assert faulted == clean

    def test_parallel_failure_counts_match_serial(self):
        def run(**kw):
            ctx = SparkletContext(fault_config=FaultConfig.chaos(seed=13),
                                  max_task_retries=8, **kw)
            with ctx:
                (ctx.parallelize(range(200), 5).map(lambda x: (x % 11, x))
                    .reduce_by_key(lambda a, b: a + b, num_partitions=4).collect())
                return ctx.all_job_metrics().total_failures

        # Injectors draw driver-side in submission order in both engines.
        assert run(backend="parallel", num_workers=2) == run()


# ---------------------------------------------------------------------------
# End-to-end byte identity: pipeline, D-RAPID, streaming
# ---------------------------------------------------------------------------
class TestEndToEndIdentity:
    def test_run_pipeline_identity(self):
        from repro.api import PipelineConfig, run_pipeline

        a = run_pipeline(PipelineConfig(seed=11, n_pulsars=4, n_observations=2,
                                        classify=False))
        b = run_pipeline(PipelineConfig(seed=11, n_pulsars=4, n_observations=2,
                                        classify=False, execution=PARALLEL_2))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.drapid.n_pulses == b.drapid.n_pulses

    def test_run_drapid_identity(self):
        from repro.api import PipelineConfig, run_drapid, run_pipeline

        base = run_pipeline(PipelineConfig(seed=11, n_pulsars=4,
                                           n_observations=2, classify=False))
        obs = base.observations
        a = run_drapid(PipelineConfig(seed=11), obs)
        b = run_drapid(PipelineConfig(seed=11, execution=PARALLEL_2), obs)
        assert np.array_equal(a.pulse_batch.features, b.pulse_batch.features)

    def test_run_streaming_identity(self):
        from repro.api import PipelineConfig, StreamingConfig, run_streaming

        def cfg(**kw):
            return StreamingConfig(pipeline=PipelineConfig(
                seed=7, n_pulsars=3, n_observations=2, **kw))

        a = run_streaming(cfg())
        b = run_streaming(cfg(execution=PARALLEL_2))
        assert a.canonical_ml_text() == b.canonical_ml_text()


# ---------------------------------------------------------------------------
# Shared-memory hygiene
# ---------------------------------------------------------------------------
class TestShmHygiene:
    def test_context_close_releases_segments(self):
        ctx = par_ctx(2)
        data = [(i % 3, np.arange(4000) + i) for i in range(12)]
        ctx.parallelize(data, 4).reduce_by_key(lambda a, b: a + b).count()
        ctx.close()
        assert no_leaks()

    def test_aborted_stream_releases_segments(self):
        """A run that dies on a non-crash exception (here the max_batches
        safety valve) must still close the context it built."""
        from repro.api import PipelineConfig, StreamingConfig, run_streaming

        config = StreamingConfig(
            pipeline=PipelineConfig(seed=7, n_pulsars=6, n_observations=3,
                                    execution=PARALLEL_2),
            max_batches=1,
        )
        with pytest.raises(RuntimeError, match="max_batches=1"):
            run_streaming(config)
        assert no_leaks()

    def test_close_is_idempotent(self):
        ctx = par_ctx(2)
        ctx.parallelize(range(10), 2).collect()
        ctx.close()
        ctx.close()
        assert no_leaks()

    def test_registry_release_owner(self):
        name = f"{shm_mod.run_prefix()}t-own"
        seg = shm_mod.create_segment(name, 128)
        seg.close()
        shm_mod.registry.register(name, 128, owner="test-owner")
        assert shm_mod.registry.release_owner("test-owner") == 1
        assert name not in shm_mod.live_segments()

    def test_sweep_catches_untracked_segment(self):
        name = f"{shm_mod.run_prefix()}t-stray"
        seg = shm_mod.create_segment(name, 64)
        seg.close()
        assert name in shm_mod.sweep()
        assert name not in shm_mod.live_segments()

    def test_blob_roundtrip_inline_and_segment(self):
        small = {"x": np.arange(10), "y": "tiny"}
        blob, seg, _size = shm_mod.encode(small, lambda: "never-used")
        assert seg is None  # under INLINE_LIMIT: no segment created
        got = shm_mod.decode(blob)
        assert np.array_equal(got["x"], small["x"]) and got["y"] == "tiny"

        big = np.arange(200_000, dtype=np.int64)
        name = f"{shm_mod.run_prefix()}t-big"
        blob, seg, size = shm_mod.encode(big, lambda: name)
        assert seg == name and size >= big.nbytes
        got = shm_mod.decode(blob)
        assert np.array_equal(got, big)
        got[0] = -1  # decoded arrays are writable copies
        assert shm_mod.registry.release(name) or True
        assert name not in shm_mod.live_segments()

    def test_worker_kill_mid_task_leaves_no_segments(self, tmp_path):
        """Kill a worker mid-task: job still completes, nothing leaks.

        Runs in a subprocess so the killed pool cannot perturb other tests,
        and so we can assert the resource tracker stays silent.
        """
        script = textwrap.dedent("""
            import os, signal, threading, time
            from repro.sparklet import SparkletContext
            from repro.sparklet import shm as shm_mod
            from repro.sparklet.executor import get_pool

            ctx = SparkletContext(backend="parallel", num_workers=2)
            pool = get_pool()
            pool.ensure(2)
            victim = pool.worker_pids()[0]

            def assassin():
                time.sleep(0.3)
                os.kill(victim, signal.SIGKILL)

            threading.Thread(target=assassin, daemon=True).start()

            def slow(x):
                time.sleep(0.02)
                return (x % 5, x)

            out = (ctx.parallelize(range(60), 6).map(slow)
                   .reduce_by_key(lambda a, b: a + b).collect())
            assert sorted(out) == sorted(
                (k, sum(x for x in range(60) if x % 5 == k)) for k in range(5)
            ), out
            ctx.close()
            assert shm_mod.live_segments() == [], shm_mod.live_segments()
            print("OK")
        """)
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_BACKEND", None)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, cwd=os.path.dirname(os.path.dirname(__file__)), env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr
        assert "KeyError" not in proc.stderr  # resource tracker stayed balanced

    def test_task_that_always_kills_its_worker_fails_within_budget(self):
        """A body that takes its worker down on every attempt must exhaust
        ``max_task_retries`` and fail the job with the typed executor-loss
        error — not respawn and resubmit forever — and leave the pool
        usable and /dev/shm clean.  (Subprocess + timeout: a loss that
        escapes the retry budget shows up as a hang, not as an error.)
        """
        script = textwrap.dedent("""
            import os, signal
            from repro.sparklet import ExecutorLostFailure, SparkletContext
            from repro.sparklet import shm as shm_mod

            def die(x):
                os.kill(os.getpid(), signal.SIGKILL)

            with SparkletContext(backend="parallel", num_workers=2,
                                 max_task_retries=2) as ctx:
                try:
                    ctx.parallelize(range(4), 2).map(die).collect()
                except ExecutorLostFailure:
                    pass
                else:
                    raise AssertionError("job outlived an always-dying task")
                # Budget: the first partition to spend max_task_retries + 1
                # attempts fails the job; neither partition gets more.
                assert 3 <= ctx.runtime.executors.n_lost <= 2 * 3
                # The pool respawns its workers for the next job.
                assert ctx.parallelize(range(6), 3).map(lambda x: x + 1).collect() \
                    == list(range(1, 7))
            assert shm_mod.live_segments() == [], shm_mod.live_segments()
            print("OK")
        """)
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_BACKEND", None)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=90, cwd=os.path.dirname(os.path.dirname(__file__)), env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr


# ---------------------------------------------------------------------------
# Observability: worker lifecycle + shm segment events
# ---------------------------------------------------------------------------
class TestParallelObservability:
    def test_worker_and_shm_events_flow_into_report(self):
        from repro.obs import ObsConfig, build_report

        with SparkletContext(backend="parallel", num_workers=2,
                             obs=ObsConfig(enabled=True)) as ctx:
            data = [(i % 3, np.arange(3000) + i) for i in range(12)]
            ctx.parallelize(data, 4).reduce_by_key(lambda a, b: a + b).count()
            events = ctx.obs.events()
            types = {e["type"] for e in events}
            assert "shm_segment_created" in types
            created = [e for e in events if e["type"] == "shm_segment_created"]
            assert all(e["nbytes"] > 0 for e in created)
            report = build_report(events)
        workers = report["workers"]
        assert workers["shm_segments_created"] == len(created)
        per = {w["worker_id"]: w for w in workers["per_worker"]}
        assert set(per) <= {"w0", "w1"} and per
        assert all(w["n_tasks"] > 0 and w["busy_s"] > 0 for w in per.values())

    def test_worker_spawn_events_emitted_on_fresh_pool(self):
        """Spawn events are attached to whichever obs session triggers the
        spawn; exercised in a subprocess so the pool is genuinely fresh."""
        script = (
            "from repro.sparklet import SparkletContext\n"
            "from repro.obs import ObsConfig\n"
            "with SparkletContext(backend='parallel', num_workers=2,\n"
            "                     obs=ObsConfig(enabled=True)) as ctx:\n"
            "    ctx.parallelize(range(8), 4).map(lambda x: x + 1).collect()\n"
            "    n = sum(1 for e in ctx.obs.events()\n"
            "            if e['type'] == 'worker_spawned')\n"
            "    assert n == 2, n\n"
            "print('OK')\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_BACKEND", None)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, cwd=os.path.dirname(os.path.dirname(__file__)), env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout


# ---------------------------------------------------------------------------
# Plain callables (the MultithreadedRapid path): a result stage like any other
# ---------------------------------------------------------------------------
class TestRunCallables:
    def test_multithreaded_rapid_routes_through_pool(self):
        from repro.core.multithreaded import MultithreadedRapid

        mt = MultithreadedRapid(n_threads=2)
        # Later tasks are cheaper, so completion order differs from
        # submission order; results must come back in submission order.
        out = mt.run([lambda i=i: sum(range((7 - i) * 20_000)) for i in range(7)])
        assert out == [sum(range((7 - i) * 20_000)) for i in range(7)]
        assert [r.task_id for r in mt.records] == list(range(7))
        assert len(mt.durations) == 7 and all(d >= 0.0 for d in mt.durations)
        assert mt.run([]) == [] and mt.durations == []
        assert no_leaks()
