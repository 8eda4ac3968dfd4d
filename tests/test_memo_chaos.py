"""Memoization × fault injection: caching must never launder chaos.

Two directions of the same law:

- A *clean* memoized run populates the store; a later run under fault
  injection that hits the cache returns results byte-identical to a clean
  uncached run (the faults simply never fire — nothing executed).
- A *faulted* run computes correct results through lineage recovery but
  must **not** store entries (its metrics carry failure counts that would
  replay into clean runs); the next clean run recomputes and stores.

Plus the corruption law end-to-end through the scheduler: a corrupted or
truncated entry is evicted and transparently recomputed, never served.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.memo import MemoConfig, MemoSession
from repro.sparklet import SparkletContext
from repro.sparklet.faults import (
    EXECUTOR_LOSS,
    FETCH_FAILURE,
    TASK_CRASH,
    FailureRule,
    FaultConfig,
)

RULE_MIXES = [
    FaultConfig(seed=7, rules=(FailureRule(TASK_CRASH, 0.3, max_fires=4),)),
    FaultConfig(seed=11, rules=(FailureRule(EXECUTOR_LOSS, 0.2, max_fires=2),)),
    FaultConfig(seed=13, rules=(FailureRule(FETCH_FAILURE, 0.25, max_fires=3),)),
    FaultConfig.chaos(seed=5, rate=0.2, max_fires=3),
]


def _job(ctx):
    acc = ctx.accumulator(0)

    def tag(x):
        acc.add(1)
        return (x % 5, x * 3)

    out = (ctx.parallelize(list(range(50)), 4)
           .map(tag)
           .reduce_by_key(lambda a, b: a + b, num_partitions=3)
           .collect())
    return sorted(out), acc.value


def _run(memo_session=None, fault_config=None):
    with SparkletContext(app_name="chaos", default_parallelism=2,
                         backend="serial", memo=memo_session,
                         fault_config=fault_config) as ctx:
        result = _job(ctx)
        failures = sum(
            s.n_task_failures + s.n_executor_lost + s.n_fetch_failures
            for j in ctx.scheduler.job_history for s in j.stages
        )
    return result, failures


@pytest.mark.parametrize("fault_config", RULE_MIXES)
def test_cache_hit_under_faults_matches_clean_uncached_run(fault_config, memo_dir):
    clean_uncached, _ = _run()
    cfg = MemoConfig(dir=memo_dir, store_candidates=False)
    # Populate from a clean memoized run.
    cold, _ = _run(MemoSession(cfg))
    assert cold == clean_uncached
    # Faulted run with an explicit memo config: the job-key hit short-
    # circuits execution entirely, so no fault ever fires and the output
    # is byte-identical to the clean uncached run.
    session = MemoSession(cfg)
    faulted, failures = _run(session, fault_config)
    assert faulted == clean_uncached
    assert failures == 0
    assert session.store.stats.hits >= 1


@pytest.mark.parametrize("fault_config", RULE_MIXES)
def test_faulted_runs_never_poison_clean_runs(fault_config, memo_dir):
    """Fault-first direction: whatever a faulted run stored (only jobs
    that themselves ran clean are eligible), replaying it into later clean
    runs must yield correct results and *zero* failure metrics."""
    clean_uncached, _ = _run()
    cfg = MemoConfig(dir=memo_dir, store_candidates=False)
    # Fault-first: lineage recovery keeps the output correct.
    faulted, _ = _run(MemoSession(cfg), fault_config)
    assert faulted == clean_uncached
    # Clean runs after it: correct results, and any replayed entries carry
    # no failure counts — a faulted job is never stored.
    cold, cold_failures = _run(MemoSession(cfg))
    warm_session = MemoSession(cfg)
    warm, warm_failures = _run(warm_session)
    assert cold == warm == clean_uncached
    assert cold_failures == 0 and warm_failures == 0
    assert warm_session.store.stats.hits >= 1


def test_at_least_one_rule_mix_actually_fires():
    """Guard the guards: the mixes above must inject real failures in the
    fault-first scenario, or the never-store assertions test nothing."""
    fired = 0
    for fc in RULE_MIXES:
        _, failures = _run(None, fc)
        fired += failures
    assert fired > 0


def _entry_files(memo_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(memo_dir, "objects", "*", "*")))


def test_corrupted_entries_recomputed_through_scheduler(memo_dir):
    cfg = MemoConfig(dir=memo_dir, store_candidates=False)
    clean, _ = _run()
    cold, _ = _run(MemoSession(cfg))
    files = _entry_files(memo_dir)
    assert files
    for fpath in files:  # flip one payload bit in every stored entry
        data = bytearray(open(fpath, "rb").read())
        data[-1] ^= 0x01
        with open(fpath, "wb") as fh:
            fh.write(bytes(data))
    session = MemoSession(cfg)
    warm, _ = _run(session)
    assert warm == clean == cold
    assert session.store.stats.hits == 0
    assert session.store.stats.corrupt_evicted == len(files)
    # The recomputation re-stored valid entries; the next run hits again.
    session2 = MemoSession(cfg)
    again, _ = _run(session2)
    assert again == clean
    assert session2.store.stats.hits >= 1
    assert session2.store.stats.corrupt_evicted == 0


def test_truncated_entries_recomputed_through_scheduler(memo_dir):
    cfg = MemoConfig(dir=memo_dir, store_candidates=False)
    clean, _ = _run()
    _run(MemoSession(cfg))
    files = _entry_files(memo_dir)
    assert files
    for fpath in files:
        data = open(fpath, "rb").read()
        with open(fpath, "wb") as fh:
            fh.write(data[: max(1, len(data) // 3)])
    session = MemoSession(cfg)
    warm, _ = _run(session)
    assert warm == clean
    assert session.store.stats.corrupt_evicted == len(files)
