"""Unit tests for the memo store, candidate DB and session resolution.

The store's contract is blunt: a corrupted or truncated entry is *never*
served — it is evicted and the caller recomputes.  The tests here flip
bits, truncate files and swap payloads to prove it, then cover result
freshness, blob addressing, the SQLite candidate archive, and the
config-resolution rules (explicit beats env; env suppressed under faults).
"""

from __future__ import annotations

import glob
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.memo import (
    CandidateDB,
    MemoConfig,
    MemoSession,
    MemoStore,
    env_memo_config,
    resolve_memo,
)
from repro.sparklet import SparkletContext
from repro.sparklet.faults import FaultConfig


# -- entry tier ---------------------------------------------------------------

def test_put_get_round_trip(tmp_path):
    store = MemoStore(str(tmp_path))
    assert store.get("k" * 64) is None
    assert store.stats.misses == 1
    assert store.put("k" * 64, {"results": [1, 2, 3]})
    assert store.get("k" * 64) == {"results": [1, 2, 3]}
    assert store.stats.hits == 1
    assert store.stats.stores == 1


def test_get_returns_fresh_objects(tmp_path):
    """A hit must unpickle fresh structures: mutating a result returned by
    one get must not poison the next get."""
    store = MemoStore(str(tmp_path))
    store.put("key1", {"results": [1, 2]})
    first = store.get("key1")
    first["results"].append(99)
    assert store.get("key1") == {"results": [1, 2]}


def _entry_files(store: MemoStore) -> list[str]:
    return sorted(glob.glob(os.path.join(store.path, "objects", "*", "*")))


def _flip_last_byte(fpath: str) -> None:
    data = bytearray(open(fpath, "rb").read())
    data[-1] ^= 0xFF  # flip a payload bit
    with open(fpath, "wb") as fh:
        fh.write(bytes(data))


def test_corrupted_entry_evicted_never_served(tmp_path):
    store = MemoStore(str(tmp_path))
    store.put("key1", {"v": "payload"})
    (fpath,) = _entry_files(store)
    _flip_last_byte(fpath)
    fresh = MemoStore(str(tmp_path))  # a store that never saw the entry
    assert fresh.get("key1") is None
    assert fresh.stats.corrupt_evicted == 1
    assert not os.path.exists(fpath)
    # Recompute-and-store works after eviction.
    assert fresh.put("key1", {"v": "recomputed"})
    assert fresh.get("key1") == {"v": "recomputed"}
    # The store that wrote an entry checks it on read too.
    (fpath,) = _entry_files(fresh)
    _flip_last_byte(fpath)
    assert fresh.get("key1") is None
    assert (fresh.stats.hits, fresh.stats.misses) == (1, 2)
    assert fresh.stats.corrupt_evicted == 2
    assert not os.path.exists(fpath)


def test_truncated_entry_evicted_never_served(tmp_path):
    store = MemoStore(str(tmp_path))
    store.put("key1", {"v": list(range(100))})
    (fpath,) = _entry_files(store)
    data = open(fpath, "rb").read()
    with open(fpath, "wb") as fh:
        fh.write(data[: len(data) // 2])  # torn write
    fresh = MemoStore(str(tmp_path))
    assert fresh.get("key1") is None
    assert fresh.stats.corrupt_evicted == 1
    assert not os.path.exists(fpath)


def test_checksum_catches_swapped_payload(tmp_path):
    """Even a *valid pickle* under the wrong header must not be served."""
    store = MemoStore(str(tmp_path))
    store.put("key1", {"v": 1})
    (fpath,) = _entry_files(store)
    header = open(fpath, "rb").read()[: len(b"RMEMO1\n") + 65]
    with open(fpath, "wb") as fh:
        fh.write(header + pickle.dumps({"v": "attacker"}))
    fresh = MemoStore(str(tmp_path))
    assert fresh.get("key1") is None
    assert fresh.stats.corrupt_evicted == 1


def test_unpicklable_value_is_uncacheable_not_fatal(tmp_path):
    store = MemoStore(str(tmp_path))
    assert store.put("key1", {"f": lambda: None}) is False
    assert store.stats.uncacheable == 1
    assert store.get("key1") is None


def test_no_tmp_files_left_behind(tmp_path):
    store = MemoStore(str(tmp_path))
    for i in range(8):
        store.put(f"key{i}", {"v": i})
        store.put_blob(f"blob{i}".encode())
    leftovers = [
        p for p in glob.glob(os.path.join(store.path, "**", "*"), recursive=True)
        if p.endswith(".tmp")
    ]
    assert leftovers == []


# -- blob tier ----------------------------------------------------------------

def test_blob_round_trip_and_content_addressing(tmp_path):
    store = MemoStore(str(tmp_path))
    sha = store.put_blob(b"raw SPE bytes")
    assert store.has_blob(sha)
    assert store.get_blob(sha) == b"raw SPE bytes"
    assert store.put_blob(b"raw SPE bytes") == sha  # idempotent


def test_corrupted_blob_raises_and_evicts(tmp_path):
    store = MemoStore(str(tmp_path))
    sha = store.put_blob(b"pristine input file")
    fpath = store._blob_path(sha)
    with open(fpath, "wb") as fh:
        fh.write(b"tampered")
    with pytest.raises(ValueError, match="checksum"):
        store.get_blob(sha)
    assert not store.has_blob(sha)
    assert store.stats.corrupt_evicted == 1


# -- candidate DB -------------------------------------------------------------

def test_candidate_db_insert_and_query(tmp_path):
    db = CandidateDB(str(tmp_path / "cand.sqlite"))
    run_id = db.insert_run(kind="drapid", survey="GBT350Drift", seed=3,
                           config_digest="cd", config_json="{}",
                           lineage_hash="lh", n_pulses=3, reproducible=1)
    ids = db.insert_candidates(run_id, [
        ("obsA", 1, 50.0, 12.0, 10.0, 1, "rowA"),
        ("obsA", 2, 80.0, 30.0, 20.0, 0, "rowB"),
        ("obsB", 1, 120.0, 7.5, 30.0, 1, "rowC"),
    ])
    assert len(ids) == 3
    assert db.counts() == (1, 3)
    # SNR window, ordered by SNR descending.
    rows = db.query(snr_min=10.0)
    assert [r["ml_row"] for r in rows] == ["rowB", "rowA"]
    # DM + time windows compose; observation filter narrows.
    assert [r["ml_row"] for r in db.query(dm_min=60.0, dm_max=100.0)] == ["rowB"]
    assert [r["ml_row"] for r in db.query(time_min=25.0)] == ["rowC"]
    assert [r["ml_row"] for r in db.query(observation_key="obsB")] == ["rowC"]
    assert db.get_candidate(ids[0])["observation_key"] == "obsA"
    assert db.get_run(run_id)["survey"] == "GBT350Drift"
    assert db.get_candidate(10_000) is None
    db.close()


#: One writer process: connect, say so with a ``<go>.<tag>`` file, wait for
#: the go file, then record ``runs`` runs of ``cands`` candidates each, one
#: connection throughout, and print when it started and finished writing.
_WRITER = """
import os, sys, time
from repro.memo import CandidateDB
path, go, tag, runs, cands = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
db = CandidateDB(path)
open(f"{go}.{tag}", "w").close()
while not os.path.exists(go):
    time.sleep(0.001)
start = time.time()
for r in range(runs):
    run_id = db.insert_run(kind="drapid", survey=tag, seed=r, config_digest="cd",
                           config_json="{}", lineage_hash=f"{tag}-{r}", n_pulses=cands)
    db.insert_candidates(run_id, [
        (f"{tag}-{r}", c, float(c), 10.0, float(r), 1, f"{tag}-{r}-{c}")
        for c in range(cands)
    ])
print(start, time.time())
db.close()
"""


def test_candidate_db_takes_two_concurrent_writers(tmp_path):
    """Two processes record runs into one database file at once (ROADMAP
    5(b)): both finish, and every run and candidate row is there, each
    candidate under its own run.  The writer that waits rides on sqlite's
    default 5 s busy timeout."""
    path, go = tmp_path / "cand.sqlite", tmp_path / "go"
    runs, cands = 150, 20
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(path), str(go), tag, str(runs), str(cands)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for tag in ("a", "b")
    ]
    deadline = time.monotonic() + 60
    while not all(Path(f"{go}.{tag}").exists() for tag in ("a", "b")):
        assert time.monotonic() < deadline and all(w.poll() is None for w in writers)
        time.sleep(0.01)
    go.touch()
    spans = []
    for writer in writers:
        out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
        spans.append([float(t) for t in out.split()])
    (a_start, a_end), (b_start, b_end) = spans
    assert a_start < b_end and b_start < a_end  # the writers overlapped
    db = CandidateDB(str(path))
    try:
        assert db.counts() == (2 * runs, 2 * runs * cands)
        rows = db._conn.execute(
            "SELECT r.lineage_hash, c.observation_key, COUNT(*) FROM candidates c"
            " JOIN runs r USING (run_id) GROUP BY c.run_id"
        ).fetchall()
        assert sorted((h, k, n) for h, k, n in rows) == sorted(
            (f"{tag}-{r}", f"{tag}-{r}", cands) for tag in ("a", "b") for r in range(runs)
        )
    finally:
        db.close()


# -- config resolution --------------------------------------------------------

def test_env_memo_config(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_MEMO", raising=False)
    assert env_memo_config() is None
    monkeypatch.setenv("REPRO_MEMO", "0")
    assert env_memo_config() is None
    monkeypatch.setenv("REPRO_MEMO", "1")
    monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path / "envdir"))
    cfg = env_memo_config()
    assert cfg is not None and cfg.dir == str(tmp_path / "envdir")


def test_resolve_memo_env_suppressed_under_faults(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_MEMO", "1")
    monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path / "envdir"))
    assert resolve_memo(None) is not None
    # Chaos suites assert exact failure counts; env memo must step aside.
    assert resolve_memo(None, fault_config=FaultConfig.chaos()) is None
    # ...but an explicit config is the caller saying "I know".
    explicit = MemoConfig(dir=str(tmp_path / "mine"))
    session = resolve_memo(explicit, fault_config=FaultConfig.chaos())
    assert session is not None and session.store.path == str(tmp_path / "mine")
    assert resolve_memo(MemoConfig(enabled=False)) is None


def test_conftest_isolates_memo_dir_per_test(tmp_path):
    """The autouse fixture must point REPRO_MEMO_DIR inside this test's
    tmp_path — no test ever shares the machine-wide default store."""
    memo_dir = os.environ.get("REPRO_MEMO_DIR")
    assert memo_dir is not None
    assert memo_dir.startswith(str(tmp_path.parent))


# -- cross-session isolation guard -------------------------------------------

def _count_sum(memo_dir: str, data: list[int], n_parts: int) -> list[int]:
    session = MemoSession(MemoConfig(dir=memo_dir, store_candidates=False))
    with SparkletContext(app_name="iso", default_parallelism=n_parts,
                         backend="serial", memo=session) as ctx:
        return ctx.parallelize(data, n_parts).map(lambda x: x * 2).collect()


def test_sessions_with_different_configs_never_cross_hit(memo_dir):
    """Back-to-back sessions sharing one store: same inputs hit, any
    changed input (data or partitioning) misses and recomputes."""
    base = _count_sum(memo_dir, [1, 2, 3, 4], 2)
    assert base == [2, 4, 6, 8]
    # Same everything → warm hit, identical output.
    assert _count_sum(memo_dir, [1, 2, 3, 4], 2) == base
    # Different data → different lineage hash → correct fresh result.
    assert _count_sum(memo_dir, [5, 6], 2) == [10, 12]
    # Different partitioning of the same data → also a distinct key.
    assert _count_sum(memo_dir, [1, 2, 3, 4], 4) == base
