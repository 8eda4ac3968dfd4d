"""The columnar text codec (``repro.dataplane._columns``) against the per-row rules.

The codec tokenises a block in one call and falls back to the per-row rule
only for a block that fails that, so every block must parse exactly as the
per-row rule parses it row by row — through torn rows, stray or missing
commas, whitespace, ``nan``/``inf``/``1_0``/``1e3`` tokens, empty trailing
fields, and blank and comment lines mid-partition.  D-RAPID over files
built from such rows must equal the per-record oracle (``run_reference``).
A call-count guard pins the speed: on clean input the per-row rules never
run, each key group is tokenised once, and the job parses no ML row.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.record_path import run_reference

from repro.astro import GBT350DRIFT, generate_observation, synthesize_population
from repro.core import drapid
from repro.core.drapid import DRapidDriver
from repro.dataplane import ClusterBatch, MalformedRowError, PulseBatch, SPEBatch, _columns
from repro.dataplane._columns import (
    CLUSTER_FIELDS,
    cluster_columns,
    cluster_record_columns,
    data_columns,
    data_row,
    key_groups,
    lenient_cluster_columns,
    strict_row,
)
from repro.dfs import DataNode, DFSClient
from repro.io.spe_files import (
    build_cluster_file,
    build_data_file,
    read_ml_batch,
    upload_observations,
)
from repro.sparklet import SparkletContext
from repro.sparklet.rdd import TextFileRDD

INT64 = (-(1 << 63), 1 << 63)

#: Tokens a torn field may become: valid for one rule and not another,
#: accepted by Python but not by NumPy's tokeniser, or garbage.
TOKENS = (
    "nan", "-nan", "NaN", "inf", "-Infinity", "1_0", "1e3", "1.5", "-0", "+7",
    " 8 ", "\t9", "\x0c3", "4\xa0", "", "x", "1e400", "0x10", "3.", ".5",
    "99999999999999999999", "١٢", "1,5",
)
TEARS = ("token", "drop", "extra", "split", "space", "empty_tail", "truncate")
KEYS = ("GBT350Drift|55000.0000|J0000+00|0", "k|1", " k ", "K\t2")


def _int64_or_none(text: str) -> int | None:
    try:
        value = int(text)
    except ValueError:
        return None
    return value if INT64[0] <= value < INT64[1] else None


def reference_data_row(row: str):
    """The keep-rule restated: kept iff the first three fields are finite
    floats; Sample/Downfact default to 0/1 one by one."""
    parts = row.split(",")
    if len(parts) < 3:
        return None
    try:
        head = [float(p) for p in parts[:3]]
    except ValueError:
        return None
    if not all(math.isfinite(v) for v in head):
        return None
    tail = [_int64_or_none(parts[i]) if i < len(parts) else None for i in (3, 4)]
    return (*head, 0 if tail[0] is None else tail[0], 1 if tail[1] is None else tail[1])


def reference_cluster_row(line: str):
    """The cluster-row rule restated; None for a malformed row."""
    parts = line.split(",")
    if len(parts) != 11:
        return None
    ints = [_int64_or_none(parts[i]) for i in (1, 2, 3, 10)]
    if None in ints:
        return None
    try:
        floats = [float(p) for p in parts[4:9]]
    except ValueError:
        return None
    return (parts[0], *ints[:3], *floats, parts[9] or None, bool(ints[3]))


def reference_ml_row(line: str):
    """One ML row: 28 fields, int64 at 1-3 and 5, floats from 6 on."""
    parts = line.split(",")
    if len(parts) != 28:
        return None
    ints = [_int64_or_none(parts[i]) for i in (1, 2, 3, 5)]
    if None in ints:
        return None
    try:
        features = [float(p) for p in parts[6:]]
    except ValueError:
        return None
    return parts[0], *ints[:3], parts[4] or None, ints[3] != 0, features


def _bits(values, dtype) -> bytes:
    return np.asarray(values, dtype=dtype).tobytes()


def assert_identical(got, want) -> None:
    """Two batches column by column, bit for bit (NaN payloads, -0.0, and
    '' vs None included)."""
    assert type(got) is type(want)
    for name in type(got).__slots__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        if a.dtype == object:
            assert a.tolist() == b.tolist(), name
        else:
            assert a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# Strategies: well-formed rows, then torn
# ---------------------------------------------------------------------------
@st.composite
def torn(draw, fields: list[str]) -> str:
    """``fields`` joined into a row after zero to two tears."""
    fields = list(fields)
    truncate = False
    for tear in draw(st.lists(st.sampled_from(TEARS), max_size=2)):
        i = draw(st.integers(0, max(len(fields) - 1, 0)))
        if tear == "token" and fields:
            fields[i] = draw(st.sampled_from(TOKENS))
        elif tear == "drop" and fields:
            del fields[i]
        elif tear == "extra":
            fields.insert(i, draw(st.sampled_from(TOKENS)))
        elif tear == "split" and fields:
            cut = draw(st.integers(0, len(fields[i])))
            fields[i:i + 1] = [fields[i][:cut], fields[i][cut:]]
        elif tear == "space" and fields:
            fields[i] = draw(st.sampled_from((" ", "\t"))) + fields[i] + " "
        elif tear == "empty_tail":
            fields.append("")
        elif tear == "truncate":
            truncate = True
    row = ",".join(fields)
    if truncate:
        row = row[: draw(st.integers(0, len(row)))]
    return row


@st.composite
def data_rows(draw) -> str:
    fields = [
        f"{draw(st.floats(0, 1000)):.3f}", f"{draw(st.floats(5, 50)):.3f}",
        f"{draw(st.floats(0, 60)):.6f}", str(draw(st.integers(0, 10**6))),
        str(draw(st.integers(1, 64))),
    ]
    return draw(torn(fields))


@st.composite
def cluster_value_rows(draw) -> str:
    """A cluster row without its ``key,`` prefix."""
    dm_lo = draw(st.floats(0, 500))
    t_lo = draw(st.floats(0, 60))
    fields = [
        str(draw(st.integers(0, 99))), str(draw(st.integers(1, 40))),
        str(draw(st.integers(1, 400))), f"{dm_lo:.3f}",
        f"{dm_lo + draw(st.floats(0, 50)):.3f}", f"{t_lo:.6f}",
        f"{t_lo + draw(st.floats(0, 2)):.6f}", f"{draw(st.floats(5, 40)):.3f}",
        draw(st.sampled_from(("", "PSR-0001", " J1 "))), draw(st.sampled_from(("0", "1"))),
    ]
    return draw(torn(fields))


#: Every float64 bit pattern: NaN payloads and signs, subnormals, -0.0.
any_float = st.integers(0, (1 << 64) - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
)


@st.composite
def ml_lines(draw) -> str:
    fields = [
        draw(st.sampled_from(KEYS)), str(draw(st.integers(0, 99))),
        str(draw(st.integers(0, 500))), str(draw(st.integers(0, 500))),
        draw(st.sampled_from(("", "PSR-0001"))), draw(st.sampled_from(("0", "1"))),
        *(repr(draw(any_float)) for _ in range(22)),
    ]
    return draw(torn(fields))


# ---------------------------------------------------------------------------
# Block parse ≡ per-row rule
# ---------------------------------------------------------------------------
class TestBlocksMatchThePerRowRule:
    @given(st.lists(data_rows(), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_data_rows(self, rows):
        want = [(i, data_row(row)) for i, row in enumerate(rows)]
        for row, (_i, got) in zip(rows, want):
            assert repr(got) == repr(reference_data_row(row))
        want = [(i, values) for i, values in want if values is not None]
        kept, columns = data_columns(rows)
        assert kept.tolist() == [i for i, _ in want]
        for j, (col, dtype) in enumerate(zip(columns, [np.float64] * 3 + [np.int64] * 2)):
            assert col.dtype == dtype
            assert col.tobytes() == _bits([values[j] for _, values in want], dtype)
        assert_identical(SPEBatch.from_data_rows(rows), SPEBatch(*columns))

    @given(st.sampled_from(KEYS), st.lists(cluster_value_rows(), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_cluster_rows(self, key, rows):
        lines = [f"{key},{row}" for row in rows]
        parsed = [reference_cluster_row(line) for line in lines]
        good = [values for values in parsed if values is not None]
        for line, values in zip(lines, parsed):
            if values is None:
                with pytest.raises(MalformedRowError):
                    strict_row(line, CLUSTER_FIELDS, "cluster line")
            else:
                assert repr(strict_row(line, CLUSTER_FIELDS, "cluster line")) == repr(values)
        columns, n_bad = lenient_cluster_columns(key, rows)
        assert n_bad == len(rows) - len(good)
        if not good:
            assert columns is None
        else:
            assert_identical(ClusterBatch(*columns), ClusterBatch(*cluster_record_columns(good)))
        if n_bad:
            for strict in (lambda: cluster_columns(rows, key),
                           lambda: ClusterBatch.from_lines(lines)):
                with pytest.raises(MalformedRowError):
                    strict()
        else:
            want = ClusterBatch(*cluster_record_columns(good))
            assert_identical(ClusterBatch(*cluster_columns(rows, key)), want)
            assert_identical(ClusterBatch.from_lines(lines), want)

    @given(st.lists(ml_lines(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_ml_rows(self, lines):
        parsed = [reference_ml_row(line) for line in lines]
        if None in parsed:
            with pytest.raises(MalformedRowError):
                PulseBatch.from_ml_lines(lines)
            return
        got = PulseBatch.from_ml_lines(lines)
        keys, cids, starts, stops, sources, rrat, features = zip(*parsed)
        assert got.observation_key.tolist() == list(keys)
        assert got.source_name.tolist() == list(sources)
        for col, want in ((got.cluster_id, cids), (got.spe_start, starts),
                          (got.spe_stop, stops)):
            assert col.tobytes() == _bits(want, np.int64)
        assert got.is_rrat.tolist() == list(rrat)
        assert got.features.tobytes() == _bits(features, np.float64)

    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(KEYS + ("", "#")), st.sampled_from(("", ",", ",1,2"))).map(
            lambda kr: kr[0] + kr[1]),
        st.sampled_from(("", "# header,DM", "#", "   ")),
    ), max_size=12))
    def test_key_groups_skip_blank_and_comment_lines(self, lines):
        want: dict[str, list[str]] = {}
        for line in lines:
            if line and not line.startswith("#"):
                key, _, rest = line.partition(",")
                want.setdefault(key, []).append(rest)
        got = key_groups(iter(lines))
        assert list(got.items()) == list(want.items())


# ---------------------------------------------------------------------------
# ML rows ↔ PulseBatch: the cached batch is what the text reads back as
# ---------------------------------------------------------------------------
class TestReadBack:
    @given(st.lists(st.tuples(
        st.sampled_from(KEYS), st.sampled_from((None, "", "PSR-0001")), st.booleans(),
        st.lists(any_float, min_size=22, max_size=22),
    ), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_read_back_is_the_parsed_text(self, rows):
        n = len(rows)
        keys, sources, rrat, features = zip(*rows)
        batch = PulseBatch(
            np.array(keys, dtype=object), np.arange(n), np.arange(n), np.arange(n) + 3,
            np.array(sources, dtype=object), np.array(rrat), np.array(features),
        )
        assert_identical(batch.read_back(),
                                 PulseBatch.from_ml_lines(batch.to_ml_lines()))

    def test_drapid_result_is_what_its_part_files_parse_back_as(
        self, observation, serial_ctx, monkeypatch
    ):
        """Computed NaNs carry the sign bit (0xfff8...) and ``repr`` writes
        them as ``nan``; an empty source is written like None.  The cached
        batches must come back as the part files read."""
        search = drapid.search_columns

        def search_with_awkward_values(*args):
            pulses = search(*args)
            features = pulses.features.copy()
            features[::3, 4] = np.array(0xFFF8000000000000, np.uint64).view(np.float64)
            features[1::4, 7] = np.array(0x7FF0000000000123, np.uint64).view(np.float64)
            source = pulses.source_name.copy()
            source[::2] = ""
            return PulseBatch(pulses.observation_key, pulses.cluster_id, pulses.spe_start,
                              pulses.spe_stop, source, pulses.is_rrat, features)

        monkeypatch.setattr(drapid, "search_columns", search_with_awkward_values)
        dfs = _dfs()
        data_path, cluster_path = upload_observations(dfs, [observation])
        driver = DRapidDriver(ctx=serial_ctx, dfs=dfs, num_partitions=4,
                              grids={"GBT350Drift": observation.grid})
        result = driver.run(data_path, cluster_path, "/ml/awkward")
        assert result.n_pulses > 0 and np.isnan(result.pulse_batch.features).any()
        assert_identical(result.pulse_batch, read_ml_batch(dfs, "/ml/awkward"))


# ---------------------------------------------------------------------------
# D-RAPID over torn files ≡ the per-record oracle
# ---------------------------------------------------------------------------
def _dfs() -> DFSClient:
    nodes = [DataNode(f"dn{i}") for i in range(4)]
    return DFSClient(nodes, replication=2, block_size=4096, seed=0)


class _TornFiles:
    """One DFS + context + driver shared by every example (paths differ)."""

    def __init__(self, observation) -> None:
        self.ctx = SparkletContext(app_name="torn", default_parallelism=4)
        self.driver = DRapidDriver(ctx=self.ctx, dfs=_dfs(), num_partitions=4,
                                   grids={"GBT350Drift": observation.grid})
        self.key = observation.key.to_key()
        self.data = build_data_file([observation]).splitlines()
        self.clusters = build_cluster_file([observation]).splitlines()
        self.case = itertools.count()

    def __repr__(self) -> str:  # hypothesis prints the fixture on failure
        return "_TornFiles()"


@pytest.fixture(scope="module")
def torn_files(observation):
    files = _TornFiles(observation)
    yield files
    files.ctx.close()


def _insert(draw, lines: list[str], extra: list[str]) -> list[str]:
    lines = list(lines)
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


class TestDRapidOnTornFiles:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_run_equals_run_reference(self, torn_files, data):
        driver, key = torn_files.driver, torn_files.key
        draw = data.draw
        noise = st.sampled_from(("", "# comment, mid-partition", "   "))
        keyed = st.sampled_from((key, key, "other|key", ""))
        torn_data = draw(st.lists(st.tuples(keyed, data_rows()), max_size=6))
        torn_clusters = draw(st.lists(st.tuples(keyed, cluster_value_rows()), max_size=4))
        data_text = _insert(draw, torn_files.data, [f"{k},{r}" for k, r in torn_data]
                            + draw(st.lists(noise, max_size=3)))
        cluster_text = _insert(draw, torn_files.clusters,
                               [f"{k},{r}" for k, r in torn_clusters]
                               + draw(st.lists(noise, max_size=3)))
        root = f"/torn/{next(torn_files.case)}"
        dfs = driver.dfs
        dfs.put_text(f"{root}/data.csv", "\n".join(data_text) + "\n")
        dfs.put_text(f"{root}/clusters.csv", "\n".join(cluster_text) + "\n")

        got = driver.run(f"{root}/data.csv", f"{root}/clusters.csv", f"{root}/ml")
        want = run_reference(driver, f"{root}/data.csv", f"{root}/clusters.csv",
                             f"{root}/ml-reference")
        got_parts = sorted(dfs.ls(f"{root}/ml/"))
        want_parts = sorted(dfs.ls(f"{root}/ml-reference/"))
        assert [dfs.get_text(p) for p in got_parts] == [dfs.get_text(p) for p in want_parts]
        assert got.n_dropped_cluster_rows == want.n_dropped_cluster_rows
        assert got.n_clusters == want.n_clusters
        assert got.n_null_joins == want.n_null_joins
        assert_identical(got.pulse_batch, want.pulse_batch)


# ---------------------------------------------------------------------------
# Call counts on a clean survey
# ---------------------------------------------------------------------------
class TestCallCounts:
    def test_clean_survey_tokenises_each_key_group_once(self, serial_ctx, monkeypatch):
        population = synthesize_population(4, max_dm=300.0, seed=5)
        observations = [
            generate_observation(
                GBT350DRIFT, [population[i % 4]], mjd=55000.0 + i, beam=i,
                n_noise_clusters=20, n_rfi_bursts=1, n_pulse_mimics=5,
                seed=17 * i, obs_length_s=30.0,
            )
            for i in range(4)
        ]
        dfs = _dfs()
        data_path, cluster_path = upload_observations(dfs, observations)

        calls: Counter = Counter()
        groups: list[int] = []
        tokenise, group = _columns.tokenise, drapid.key_groups
        compute = TextFileRDD.compute

        def counted_tokenise(rows, *args, **kwargs):
            calls["tokenise"] += 1
            return tokenise(rows, *args, **kwargs)

        def counted_key_groups(lines):
            by_key = group(lines)
            groups.append(len(by_key))
            return by_key

        def counted_compute(rdd, split, runtime):
            calls[(rdd.path, split)] += 1
            return compute(rdd, split, runtime)

        def forbidden(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"{name} ran on clean input")
            return fail

        monkeypatch.setattr(_columns, "tokenise", counted_tokenise)
        monkeypatch.setattr(drapid, "key_groups", counted_key_groups)
        monkeypatch.setattr(TextFileRDD, "compute", counted_compute)
        # The per-row rules: the lenient keep-rule and the strict formats.
        for name in ("data_row", "strict_row"):
            monkeypatch.setattr(_columns, name, forbidden(name))
        monkeypatch.setattr(PulseBatch, "from_ml_lines",
                            classmethod(forbidden("from_ml_lines")))

        driver = DRapidDriver(ctx=serial_ctx, dfs=dfs, num_partitions=6,
                              grids={"GBT350Drift": observations[0].grid})
        result = driver.run(data_path, cluster_path, "/ml/guard")

        assert result.n_pulses > 0 and result.n_clusters > 0
        # One tokeniser call per key group of each partition, nothing else.
        assert len(groups) > len(observations) and calls.pop("tokenise") == sum(groups)
        partitions = {
            (path, split)
            for path in (data_path, cluster_path)
            for split in range(len(dfs.block_locations(path)))
        }
        assert dict(calls) == {p: 1 for p in partitions}
        assert len(result.metrics.stages) == 3
