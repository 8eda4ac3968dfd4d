"""Unit tests for pair-RDD operations (dict-oracle style)."""

from collections import defaultdict

import pytest

from repro.sparklet import HashPartitioner


@pytest.fixture
def kv_data():
    return [(f"k{i % 5}", i) for i in range(40)]


class TestReduceByKey:
    def test_sums_match_oracle(self, ctx, kv_data):
        oracle = defaultdict(int)
        for k, v in kv_data:
            oracle[k] += v
        got = dict(ctx.parallelize(kv_data, 4).reduce_by_key(lambda a, b: a + b).collect())
        assert got == dict(oracle)

    def test_single_partition(self, ctx):
        got = dict(ctx.parallelize([("a", 1), ("a", 2)], 1).reduce_by_key(lambda a, b: a + b).collect())
        assert got == {"a": 3}

    def test_output_partitioner_set(self, ctx, kv_data):
        rdd = ctx.parallelize(kv_data, 4).reduce_by_key(lambda a, b: a + b, num_partitions=3)
        assert rdd.partitioner == HashPartitioner(3)

    def test_keys_colocated_by_hash(self, ctx, kv_data):
        part = HashPartitioner(3)
        rdd = ctx.parallelize(kv_data, 4).reduce_by_key(lambda a, b: a + b, partitioner=part)
        buckets = rdd.map_partitions(lambda it: [list(it)]).collect()
        for i, bucket in enumerate(buckets):
            for k, _v in bucket:
                assert part.partition_for(k) == i


class TestAggregateByKey:
    def test_list_aggregation(self, ctx):
        data = [("x", 1), ("y", 2), ("x", 3)]
        got = dict(
            ctx.parallelize(data, 3)
            .aggregate_by_key([], lambda acc, v: acc + [v], lambda a, b: a + b)
            .collect()
        )
        assert sorted(got["x"]) == [1, 3]
        assert got["y"] == [2]

    def test_zero_value_not_shared_between_keys(self, ctx):
        # A mutable zero must be deep-copied per combiner.
        data = [("a", 1), ("b", 2), ("a", 3), ("b", 4)]
        got = dict(
            ctx.parallelize(data, 2)
            .aggregate_by_key([], lambda acc, v: acc.append(v) or acc, lambda a, b: a + b)
            .collect()
        )
        assert sorted(got["a"]) == [1, 3]
        assert sorted(got["b"]) == [2, 4]

    def test_count_and_sum(self, ctx, kv_data):
        got = dict(
            ctx.parallelize(kv_data, 4)
            .aggregate_by_key((0, 0), lambda acc, v: (acc[0] + 1, acc[1] + v),
                              lambda a, b: (a[0] + b[0], a[1] + b[1]))
            .collect()
        )
        assert got["k0"][0] == 8  # 40 items over 5 keys


class TestGroupByKey:
    def test_groups_match_oracle(self, ctx, kv_data):
        oracle = defaultdict(list)
        for k, v in kv_data:
            oracle[k].append(v)
        got = dict(ctx.parallelize(kv_data, 4).group_by_key().collect())
        assert {k: sorted(v) for k, v in got.items()} == {
            k: sorted(v) for k, v in oracle.items()
        }


class TestPartitionBy:
    def test_same_partitioner_is_noop(self, ctx, kv_data):
        part = HashPartitioner(4)
        rdd = ctx.parallelize(kv_data, 4).partition_by(part)
        assert rdd.partition_by(part) is rdd
        kept = rdd.filter(lambda kv: kv[1] % 2 == 0)
        assert kept.partition_by(part) is kept  # filter keeps the partitioner

    def test_repartition_moves_keys(self, ctx, kv_data):
        part = HashPartitioner(6)
        rdd = ctx.parallelize(kv_data, 2).partition_by(part)
        assert rdd.num_partitions == 6
        assert sorted(rdd.collect()) == sorted(kv_data)


class TestJoins:
    def test_inner_join(self, ctx):
        a = ctx.parallelize([("k1", 1), ("k2", 2)], 2)
        b = ctx.parallelize([("k1", "x"), ("k3", "y")], 2)
        assert dict(a.join(b).collect()) == {"k1": (1, "x")}

    def test_inner_join_cross_product_on_dup_keys(self, ctx):
        a = ctx.parallelize([("k", 1), ("k", 2)], 1)
        b = ctx.parallelize([("k", "x"), ("k", "y")], 1)
        got = sorted(v for _k, v in a.join(b).collect())
        assert got == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]

    def test_left_outer_join_keeps_left_nulls(self, ctx):
        a = ctx.parallelize([("k1", 1), ("k2", 2)], 2)
        b = ctx.parallelize([("k1", "x")], 1)
        got = dict(a.left_outer_join(b).collect())
        assert got == {"k1": (1, "x"), "k2": (2, None)}

    def test_cogroup_groups_both_sides(self, ctx):
        a = ctx.parallelize([("k", 1), ("k", 2), ("j", 3)], 2)
        b = ctx.parallelize([("k", "x")], 1)
        got = {k: (sorted(l), sorted(r)) for k, (l, r) in a.cogroup(b).collect()}
        assert got == {"k": ([1, 2], ["x"]), "j": ([3], [])}

    def test_copartitioned_join_is_narrow(self, ctx):
        """The D-RAPID optimization: identically partitioned inputs join
        without any new shuffle dependency."""
        part = HashPartitioner(4)
        a = ctx.parallelize([(i, "a") for i in range(20)], 3).partition_by(part)
        b = ctx.parallelize([(i, "b") for i in range(20)], 2).partition_by(part)
        # Force materialization of the partition_by shuffles.
        a.count()
        b.count()
        joined = a.join(b, partitioner=part)
        # Walk lineage: the cogroup node must have no ShuffleDependency.
        from repro.sparklet.rdd import CoGroupedRDD, ShuffleDependency

        node = joined
        while not isinstance(node, CoGroupedRDD):
            node = node.deps[0].rdd
        assert not any(isinstance(d, ShuffleDependency) for d in node.deps)
        assert dict(joined.collect()) == {i: ("a", "b") for i in range(20)}

    def test_uncopartitioned_join_needs_shuffles(self, ctx):
        from repro.sparklet.rdd import CoGroupedRDD, ShuffleDependency

        a = ctx.parallelize([(i, "a") for i in range(10)], 3)
        b = ctx.parallelize([(i, "b") for i in range(10)], 2)
        joined = a.join(b)
        node = joined
        while not isinstance(node, CoGroupedRDD):
            node = node.deps[0].rdd
        assert all(isinstance(d, ShuffleDependency) for d in node.deps)
        assert dict(joined.collect()) == {i: ("a", "b") for i in range(10)}
