"""Unit tests for RDD transformations and actions (list-oracle style)."""

import pytest



class TestParallelize:
    def test_collect_preserves_order(self, ctx):
        data = list(range(37))
        assert ctx.parallelize(data, 5).collect() == data

    def test_partition_slicing_covers_all(self, ctx):
        rdd = ctx.parallelize(list(range(10)), 4)
        parts = rdd.map_partitions(lambda it: [list(it)]).collect()
        assert len(parts) == 4
        assert [x for p in parts for x in p] == list(range(10))

    def test_more_partitions_than_elements(self, ctx):
        rdd = ctx.parallelize([1, 2], 8)
        assert rdd.count() == 2
        assert rdd.num_partitions == 8

    def test_invalid_partition_count(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([1], 0)


class TestTransformations:
    def test_map(self, ctx):
        assert ctx.parallelize([1, 2, 3], 2).map(lambda x: x * 10).collect() == [10, 20, 30]

    def test_filter(self, ctx):
        got = ctx.parallelize(range(20), 3).filter(lambda x: x % 3 == 0).collect()
        assert got == [0, 3, 6, 9, 12, 15, 18]

    def test_flat_map(self, ctx):
        got = ctx.parallelize(["a b", "c"], 2).flat_map(str.split).collect()
        assert got == ["a", "b", "c"]

    def test_map_partitions(self, ctx):
        got = ctx.parallelize(range(10), 3).map_partitions(lambda it: [sum(it)]).collect()
        assert sum(got) == sum(range(10))
        assert len(got) == 3

    def test_chaining_is_lazy(self, serial_ctx):
        ctx = serial_ctx  # driver-side side effects: serial semantics only
        calls = []

        def probe(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize([1, 2, 3], 1).map(probe)
        assert calls == []  # nothing ran yet
        rdd.collect()
        assert calls == [1, 2, 3]


class TestActions:
    def test_count(self, ctx):
        assert ctx.parallelize(range(101), 7).count() == 101

class TestCaching:
    def test_cache_avoids_recompute(self, serial_ctx):
        ctx = serial_ctx  # driver-side side effects: serial semantics only
        calls = []

        def probe(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize([1, 2, 3], 1).map(probe).cache()
        rdd.collect()
        rdd.collect()
        assert calls == [1, 2, 3]  # computed once

class TestTextFile:
    def test_reads_all_lines(self, ctx, dfs):
        lines = [f"row-{i}" for i in range(500)]
        dfs.put_text("/t.csv", "\n".join(lines) + "\n")
        rdd = ctx.text_file(dfs, "/t.csv")
        assert rdd.collect() == lines

    def test_block_boundary_lines_owned_once(self, ctx, dfs):
        # Long lines guarantee block straddling with the 4 KiB test blocks.
        lines = [("x" * 300) + f"-{i}" for i in range(100)]
        dfs.put_text("/long.csv", "\n".join(lines) + "\n")
        rdd = ctx.text_file(dfs, "/long.csv")
        assert rdd.num_partitions > 1  # actually multi-block
        assert rdd.collect() == lines

    def test_no_trailing_newline(self, ctx, dfs):
        dfs.put_text("/nt.csv", "a\nb\nc")
        assert ctx.text_file(dfs, "/nt.csv").collect() == ["a", "b", "c"]

    def test_preferred_locations_come_from_replicas(self, ctx, dfs):
        dfs.put_text("/loc.csv", "hello\n")
        rdd = ctx.text_file(dfs, "/loc.csv")
        locs = rdd.preferred_locations(0)
        assert locs  # at least one replica location
        assert all(loc.startswith("dn") for loc in locs)

    def test_save_as_text_file_roundtrip(self, ctx, dfs):
        data = [f"line{i}" for i in range(50)]
        ctx.parallelize(data, 3).save_as_text_file(dfs, "/out")
        parts = dfs.ls("/out/")
        assert len(parts) == 3
        combined = "".join(dfs.get_text(p) for p in parts)
        assert combined.splitlines() == data
