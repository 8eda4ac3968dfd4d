"""Unit tests for partitioners and the portable hash."""

import pytest

from repro.sparklet.partitioner import (
    HashPartitioner,
    Partitioner,
    portable_hash,
)


class TestPortableHash:
    def test_stable_for_strings(self):
        # Regression guard: these values must never change across runs or
        # PYTHONHASHSEED settings (colocated joins depend on it).
        assert portable_hash("GBT350Drift|55000.0|J0000+0000|0") == portable_hash(
            "GBT350Drift|55000.0|J0000+0000|0"
        )
        assert portable_hash("abc") != portable_hash("abd")

    def test_int_identity(self):
        assert portable_hash(42) == 42
        assert portable_hash(-7) == -7

    def test_bool_and_none(self):
        assert portable_hash(None) == 0
        assert portable_hash(True) == 1
        assert portable_hash(False) == 0

    def test_float_int_consistency(self):
        assert portable_hash(3.0) == portable_hash(3)

    def test_bytes_equal_to_utf8_string(self):
        assert portable_hash("key") == portable_hash(b"key")

    def test_tuple_keys(self):
        assert portable_hash(("a", 1)) == portable_hash(("a", 1))
        assert portable_hash(("a", 1)) != portable_hash(("a", 2))
        assert portable_hash((("x",), 2)) == portable_hash((("x",), 2))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            portable_hash([1, 2, 3])


class TestHashPartitioner:
    def test_in_range(self):
        part = HashPartitioner(7)
        for key in ("a", "b", 12, ("k", 3), None):
            assert 0 <= part.partition_for(key) < 7

    def test_deterministic(self):
        part = HashPartitioner(13)
        keys = [f"key-{i}" for i in range(100)]
        assert [part.partition_for(k) for k in keys] == [part.partition_for(k) for k in keys]

    def test_equality_semantics(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)
        assert HashPartitioner(4) != Partitioner(4)

    def test_rejects_nonpositive_partitions(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_spreads_keys(self):
        part = HashPartitioner(8)
        buckets = {part.partition_for(f"obs-{i}") for i in range(200)}
        assert len(buckets) == 8  # every partition hit with 200 keys
