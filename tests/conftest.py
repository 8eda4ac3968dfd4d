"""Shared fixtures: small synthetic datasets, DFS/Sparklet instances.

Everything here is deliberately tiny — substrate behaviour is what the unit
tests probe; the scaled experiments live in ``benchmarks/``.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.astro import GBT350DRIFT, generate_observation, synthesize_population
from repro.astro.benchmark import Benchmark, build_benchmark
from repro.astro.population import b1853_like
from repro.dfs import DataNode, DFSClient
from repro.sparklet import SparkletContext


def pytest_collection_modifyitems(config, items):
    """Optionally shuffle test order: ``REPRO_TEST_SHUFFLE=<seed>``.

    The suite must not depend on collection order (shared caches, env
    leakage, module state); CI runs one shuffled pass to enforce that.
    """
    seed = os.environ.get("REPRO_TEST_SHUFFLE")
    if seed:
        random.Random(int(seed)).shuffle(items)


@pytest.fixture(scope="session", autouse=True)
def _memo_env_session_isolation(tmp_path_factory):
    """Session-level floor under the per-test isolation below.

    Class/module/session-scoped fixtures are set up *before* any
    function-scoped autouse fixture runs, so a pipeline run inside one
    would otherwise fall back to the shared ``$TMPDIR/repro-memo`` default
    — warm with entries from previous pytest invocations (or other users
    on a shared machine).  Pointing the env at a per-invocation directory
    here guarantees every run in this process starts from a cold store.
    """
    old = os.environ.get("REPRO_MEMO_DIR")
    os.environ["REPRO_MEMO_DIR"] = str(tmp_path_factory.mktemp("memo-session"))
    yield
    if old is None:
        os.environ.pop("REPRO_MEMO_DIR", None)
    else:
        os.environ["REPRO_MEMO_DIR"] = old


@pytest.fixture(autouse=True)
def _memo_env_isolation(tmp_path, monkeypatch):
    """Point memoization at a per-test directory, never at a shared one.

    Two hazards this removes: (a) ``REPRO_MEMO=1`` suite runs would share
    one tmpdir store across every test (and across *users* on a shared
    machine, since the default lives under ``$TMPDIR``); (b) a test that
    sets ``REPRO_MEMO`` itself would leak it into later tests.
    """
    monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path / "memo"))
    yield


@pytest.fixture
def memo_dir(tmp_path):
    """A fresh private memoization directory (for explicit MemoConfig use)."""
    d = tmp_path / "memo-explicit"
    d.mkdir()
    return str(d)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def dfs() -> DFSClient:
    nodes = [DataNode(f"dn{i}") for i in range(4)]
    return DFSClient(nodes, replication=2, block_size=4096, seed=0)


@pytest.fixture
def ctx():
    """A context closed at teardown: under ``REPRO_BACKEND=parallel`` an
    open context pins shared-memory segments that the shm-hygiene tests
    would report as leaks."""
    c = SparkletContext(app_name="test", default_parallelism=4)
    yield c
    c.close()


@pytest.fixture
def serial_ctx() -> SparkletContext:
    """Explicitly in-process execution, regardless of REPRO_BACKEND.

    For tests that observe driver-side effects of task closures (lists
    appended to from ``map``) — semantics that only hold when
    tasks run in the driver process.
    """
    c = SparkletContext(app_name="test", default_parallelism=4,
                        backend="serial")
    yield c
    c.close()


@pytest.fixture(scope="session")
def observation():
    """One observation of a bright pulsar plus noise/RFI (session-cached)."""
    return generate_observation(
        GBT350DRIFT, [b1853_like()], seed=3, n_noise_clusters=40, n_rfi_bursts=2,
        n_pulse_mimics=10, obs_length_s=60.0,
    )


@pytest.fixture(scope="session")
def small_population():
    return synthesize_population(8, rrat_fraction=0.25, max_dm=300.0, seed=7)


@pytest.fixture(scope="session")
def small_benchmark() -> Benchmark:
    """A small but fully-featured labeled benchmark (session-cached)."""
    return build_benchmark(
        GBT350DRIFT,
        n_pulsars=12,
        target_positive=150,
        target_negative=700,
        rrat_fraction=0.25,
        seed=0,
    )


@pytest.fixture(scope="session")
def toy_classification():
    """Separable 3-class blobs with noise dimensions: (X, y)."""
    gen = np.random.default_rng(0)
    per = 120
    X = np.vstack(
        [
            gen.normal([0.0, 0.0], 1.0, (per, 2)),
            gen.normal([5.0, 0.0], 1.0, (per, 2)),
            gen.normal([2.5, 5.0], 1.0, (per, 2)),
        ]
    )
    X = np.hstack([X, gen.normal(0.0, 1.0, (3 * per, 4))])
    y = np.repeat([0, 1, 2], per)
    shuffle = gen.permutation(3 * per)
    return X[shuffle], y[shuffle]
