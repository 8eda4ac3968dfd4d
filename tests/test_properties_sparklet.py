"""Property-based tests: Sparklet semantics against list/dict oracles."""

from collections import Counter, defaultdict

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.sparklet import HashPartitioner, SparkletContext
from repro.sparklet.partitioner import portable_hash

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

keys = st.one_of(st.integers(-50, 50), st.text(min_size=0, max_size=6))
pairs = st.lists(st.tuples(keys, st.integers(-100, 100)), max_size=60)
ints = st.lists(st.integers(-1000, 1000), max_size=80)
nparts = st.integers(1, 7)


def make_ctx() -> SparkletContext:
    return SparkletContext(default_parallelism=3)


class TestRDDOracles:
    @SETTINGS
    @given(data=ints, n=nparts)
    def test_collect_is_identity(self, data, n):
        assert make_ctx().parallelize(data, n).collect() == data

    @SETTINGS
    @given(data=ints, n=nparts)
    def test_map_matches_list_map(self, data, n):
        got = make_ctx().parallelize(data, n).map(lambda x: x * 3 - 1).collect()
        assert got == [x * 3 - 1 for x in data]

    @SETTINGS
    @given(data=ints, n=nparts)
    def test_filter_matches_list_filter(self, data, n):
        got = make_ctx().parallelize(data, n).filter(lambda x: x % 2 == 0).collect()
        assert got == [x for x in data if x % 2 == 0]

    @SETTINGS
    @given(data=ints, n=nparts)
    def test_count_matches_len(self, data, n):
        assert make_ctx().parallelize(data, n).count() == len(data)


class TestPairOracles:
    @SETTINGS
    @given(data=pairs, n=nparts)
    def test_reduce_by_key_matches_dict(self, data, n):
        oracle = defaultdict(int)
        for k, v in data:
            oracle[k] += v
        got = dict(make_ctx().parallelize(data, n).reduce_by_key(lambda a, b: a + b).collect())
        assert got == dict(oracle)

    @SETTINGS
    @given(data=pairs, n=nparts)
    def test_group_by_key_matches_dict(self, data, n):
        oracle = defaultdict(list)
        for k, v in data:
            oracle[k].append(v)
        got = dict(make_ctx().parallelize(data, n).group_by_key().collect())
        assert {k: sorted(v) for k, v in got.items()} == {
            k: sorted(v) for k, v in oracle.items()
        }

    @SETTINGS
    @given(data=pairs, n=nparts, parts=st.integers(1, 5))
    def test_partition_by_preserves_multiset(self, data, n, parts):
        part = HashPartitioner(parts)
        got = make_ctx().parallelize(data, n).partition_by(part).collect()
        assert Counter(got) == Counter(data)

    @SETTINGS
    @given(left=pairs, right=pairs)
    def test_left_outer_join_matches_oracle(self, left, right):
        ctx = make_ctx()
        got = ctx.parallelize(left, 3).left_outer_join(ctx.parallelize(right, 2)).collect()
        right_by_key = defaultdict(list)
        for k, v in right:
            right_by_key[k].append(v)
        oracle = Counter()
        for k, lv in left:
            if right_by_key.get(k):
                for rv in right_by_key[k]:
                    oracle[(k, (lv, rv))] += 1
            else:
                oracle[(k, (lv, None))] += 1
        assert Counter(got) == oracle

    @SETTINGS
    @given(data=pairs, parts=st.integers(1, 5))
    def test_copartitioned_join_equals_plain_join(self, data, parts):
        part = HashPartitioner(parts)
        ctx = make_ctx()
        a = ctx.parallelize(data, 2).partition_by(part)
        b = ctx.parallelize(data, 3).partition_by(part)
        fast = Counter(a.join(b, partitioner=part).collect())
        ctx2 = make_ctx()
        slow = Counter(
            ctx2.parallelize(data, 2).join(ctx2.parallelize(data, 3)).collect()
        )
        assert fast == slow


class TestPartitionerProperties:
    @SETTINGS
    @given(key=keys, parts=st.integers(1, 32))
    def test_hash_partition_in_range(self, key, parts):
        p = HashPartitioner(parts).partition_for(key)
        assert 0 <= p < parts

    @SETTINGS
    @given(key=keys)
    def test_equal_keys_same_partition(self, key):
        part = HashPartitioner(8)
        assert part.partition_for(key) == part.partition_for(key)

    @SETTINGS
    @given(key=st.one_of(keys, st.tuples(keys, keys)))
    def test_portable_hash_is_int(self, key):
        assert isinstance(portable_hash(key), int)
