"""Property-based cache laws for the memoization subsystem.

The laws, in decreasing order of importance:

1. **Transparency** — a warm (memoized) run returns byte-identical results
   to a cold run and to an unmemoized run, on every backend, for any data,
   partitioning and closure; accumulators included.
2. **Stability** — lineage hashes are pure functions of structure: stable
   across processes (and across ``PYTHONHASHSEED``), insensitive to dict
   insertion order and float formatting.
3. **Sensitivity** — perturbing any single config field or one byte of
   upstream data changes the key, so stale entries can never be served.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.search import SearchParams
from repro.memo import MemoConfig, MemoSession, config_digest, token_for
from repro.memo.hashing import canonical_json, lineage_token
from repro.sparklet import SparkletContext

# -- strategies --------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


# -- law 2: stability ---------------------------------------------------------

@given(st.dictionaries(st.text(max_size=8), values, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_token_insensitive_to_dict_insertion_order(d, rnd):
    items = list(d.items())
    rnd.shuffle(items)
    reordered = dict(items)
    assert token_for(reordered) == token_for(d)
    assert canonical_json(reordered) == canonical_json(d)


@given(st.sets(st.integers(), max_size=8), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_token_insensitive_to_set_iteration_order(s, rnd):
    items = list(s)
    rnd.shuffle(items)
    assert token_for(set(items)) == token_for(s)


@given(st.floats(allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_float_token_depends_only_on_the_double(x):
    # repr round-trips exactly, so re-parsing the shortest decimal form
    # must give the same token; a different double must not.
    assert token_for(float(repr(x))) == token_for(x)
    import math

    if x == 0.0 or not math.isinf(x):
        nudged = math.nextafter(x, math.inf)
        if nudged != x and not math.isinf(nudged):
            assert token_for(nudged) != token_for(x)


def _normalized(v):
    """Collapse the equivalences token_for deliberately makes: tuples and
    lists are identified (both are 'a sequence')."""
    if isinstance(v, (list, tuple)):
        return ["seq", *[_normalized(x) for x in v]]
    if isinstance(v, dict):
        return {k: _normalized(x) for k, x in v.items()}
    return v


@given(values, values)
@settings(max_examples=60, deadline=None)
def test_equal_tokens_imply_equal_values(a, b):
    """No collisions on JSON-ish data: if two values hash alike they *are*
    alike (up to the list/tuple identification)."""
    if token_for(a) == token_for(b):
        assert _normalized(a) == _normalized(b)


_XPROC_SCRIPT = r"""
import sys
sys.path.insert(0, "src")
from repro.dfs import DataNode, DFSClient
from repro.memo import job_key, token_for
from repro.memo.hashing import callable_token

payload = {"b": 2.5, "a": [1, 2, {"x": (1, "s")}], "c": {"k": [True, None]}}
k = 3
def mapper(v, bias=1.5):
    return v * k + bias

dfs = DFSClient([DataNode("dn0")], replication=1)
dfs.put_text("/in.txt", "alpha\nbeta\ngamma\n")
from repro.sparklet import SparkletContext
with SparkletContext(app_name="x", default_parallelism=2) as ctx:
    rdd = (ctx.text_file(dfs, "/in.txt")
              .map(lambda line: (line[0], 1))
              .reduce_by_key(lambda a, b: a + b, num_partitions=2))
    jk = job_key(rdd, list)
print(token_for(payload))
print(callable_token(mapper))
print(jk)
"""


def test_hashes_stable_across_processes_and_hashseed():
    """Two interpreters with different PYTHONHASHSEED must agree on value
    tokens, callable tokens and full job keys."""
    outs = []
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _XPROC_SCRIPT], env=env, cwd="/root/repo",
            capture_output=True, text=True, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 3


# -- law 3: sensitivity -------------------------------------------------------

def test_any_single_search_params_field_changes_the_digest():
    base = SearchParams()
    seen = {config_digest(base)}
    for f in dataclasses.fields(SearchParams):
        if not f.compare:
            continue
        old = getattr(base, f.name)
        if isinstance(old, bool):
            new = not old
        elif isinstance(old, (int, float)):
            new = old + 1
        elif isinstance(old, str):
            new = old + "_x"
        else:
            continue
        d = config_digest(dataclasses.replace(base, **{f.name: new}))
        assert d not in seen, f"perturbing {f.name} did not change the digest"
        seen.add(d)


@given(st.dictionaries(st.text(min_size=1, max_size=8), st.integers(),
                       min_size=1, max_size=6),
       st.data())
@settings(max_examples=30, deadline=None)
def test_any_single_config_key_perturbation_changes_the_digest(cfg, data):
    key = data.draw(st.sampled_from(sorted(cfg)))
    perturbed = dict(cfg)
    perturbed[key] = cfg[key] + 1
    assert config_digest(perturbed) != config_digest(cfg)


def test_one_byte_of_upstream_data_changes_the_lineage(dfs):
    with SparkletContext(app_name="t", default_parallelism=2) as ctx:
        dfs.put_text("/a.txt", "hello world\n")
        before = lineage_token(ctx.text_file(dfs, "/a.txt").map(str.upper))
        dfs.delete("/a.txt")
        dfs.put_text("/a.txt", "hello worlD\n")
        after = lineage_token(ctx.text_file(dfs, "/a.txt").map(str.upper))
    assert before != after


def test_closure_capture_changes_the_lineage():
    def chain(k):
        with SparkletContext(app_name="t", default_parallelism=2) as ctx:
            return lineage_token(ctx.parallelize([1, 2, 3], 2).map(lambda x: x * k))

    assert chain(2) != chain(3)
    assert chain(2) == chain(2)


# -- law 1: transparency ------------------------------------------------------

def _wordcount(ctx, data, n_parts):
    acc = ctx.accumulator(0)

    def tag(x):
        acc.add(1)
        return (x % 5, x)

    pairs = ctx.parallelize(data, n_parts).map(tag)
    result = pairs.reduce_by_key(lambda a, b: a + b, num_partitions=2).collect()
    return sorted(result), acc.value


@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1,
             max_size=30),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
def test_warm_equals_cold_equals_uncached(data, n_parts):
    memo_dir = tempfile.mkdtemp(prefix="memo-prop-")
    cfg = MemoConfig(dir=memo_dir, store_candidates=False)

    with SparkletContext(app_name="u", default_parallelism=2,
                         backend="serial") as ctx:
        uncached = _wordcount(ctx, data, n_parts)
    with SparkletContext(app_name="c", default_parallelism=2, backend="serial",
                         memo=MemoSession(cfg)) as ctx:
        cold = _wordcount(ctx, data, n_parts)
    warm_session = MemoSession(cfg)
    with SparkletContext(app_name="w", default_parallelism=2, backend="serial",
                         memo=warm_session) as ctx:
        warm = _wordcount(ctx, data, n_parts)

    assert cold == uncached
    assert warm == uncached  # results AND accumulator value replay identically
    assert warm_session.store.stats.hits >= 1


@pytest.mark.parametrize("backend", ["serial", "parallel"])
def test_warm_equals_cold_across_backends(backend, memo_dir):
    cfg = MemoConfig(dir=memo_dir, store_candidates=False)
    data = list(range(40))

    def run(session):
        with SparkletContext(app_name="b", default_parallelism=2,
                             backend=backend, num_workers=2,
                             memo=session) as ctx:
            return _wordcount(ctx, data, 3)

    uncached = run(None)
    cold = run(MemoSession(cfg))
    warm_session = MemoSession(cfg)
    warm = run(warm_session)
    assert cold == uncached == warm
    assert warm_session.store.stats.hits >= 1


@pytest.mark.parametrize("backend", ["serial", "parallel"])
def test_prefix_overlap_job_misses_and_matches_uncached(backend, memo_dir):
    """Two jobs sharing a shuffle prefix but differing downstream: in a
    later run the perturbed job must miss the store outright (the cache
    keys whole jobs only, so nothing of the shared prefix is served) and
    still produce exactly what an unmemoized run produces."""
    cfg = MemoConfig(dir=memo_dir, store_candidates=False)
    data = list(range(60))

    def summed(ctx):
        # One definition, so the prefix's lineage hashes alike in every run.
        pairs = ctx.parallelize(data, 4).map(lambda x: (x % 7, x))
        return pairs.reduce_by_key(lambda a, b: a + b, num_partitions=3)

    def jobs(ctx):
        first = sorted(summed(ctx).collect())
        second = sorted(summed(ctx).map(lambda kv: (kv[0], kv[1] * 10)).collect())
        return first, second

    def perturbed(ctx):
        return sorted(summed(ctx).map(lambda kv: (kv[0], kv[1] * 11)).collect())

    def run(memo, fn):
        with SparkletContext(app_name="p", default_parallelism=2, backend=backend,
                             num_workers=2, memo=memo) as ctx:
            return fn(ctx)

    assert run(MemoSession(cfg), jobs) == run(None, jobs)
    session = MemoSession(cfg)
    assert run(session, perturbed) == run(None, perturbed)
    assert session.store.stats.hits == 0
