"""Persistent candidate database + end-to-end candidate reproduction.

Every classified pulse a memo-enabled D-RAPID run produces is recorded
with full provenance: the lineage hash and config digest of the run, the
model version, the obs event-sequence range it was produced under, and —
crucially — content-addressed blobs of the *raw inputs* (SPE data file,
cluster file) plus the driver parameters.  That is enough to replay the
exact lineage slice that produced any one candidate:

    reproduce(c):  slice both input files to c's observation key
                   → fresh serial context, no memo
                   → DRapidDriver(grids, params, num_partitions) from blob
                   → assert c's ML row is in the replayed output

which is the "re-find saved candidates from state" workflow of
rfpipe's ``reproduce.py`` and the GSP/CRAFTS candidate archive, built on
stdlib sqlite3 so it costs no new dependency.
"""

from __future__ import annotations

import io
import pickle
import sqlite3
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.memo.hashing import MEMO_FORMAT, canonical_json, digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.drapid import DRapidDriver, DRapidResult
    from repro.dataplane.pulse_batch import PulseBatch
    from repro.memo.config import MemoSession

__all__ = [
    "CandidateDB",
    "ReproduceResult",
    "record_run",
    "reproduce_candidate",
]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    created_utc   TEXT    NOT NULL DEFAULT (datetime('now')),
    kind          TEXT    NOT NULL,           -- 'drapid' | 'streaming'
    survey        TEXT,
    seed          INTEGER,
    config_digest TEXT    NOT NULL,
    config_json   TEXT    NOT NULL,
    lineage_hash  TEXT    NOT NULL,
    model_version TEXT,
    data_sha      TEXT,                       -- blob: raw SPE data file
    cluster_sha   TEXT,                       -- blob: raw cluster file
    driver_sha    TEXT,                       -- blob: pickled driver params
    ml_output_path TEXT,
    n_pulses      INTEGER NOT NULL,
    obs_seq_lo    INTEGER,
    obs_seq_hi    INTEGER,
    reproducible  INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS candidates (
    candidate_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id          INTEGER NOT NULL REFERENCES runs(run_id),
    observation_key TEXT    NOT NULL,
    cluster_id      INTEGER NOT NULL,
    dm              REAL    NOT NULL,
    snr             REAL    NOT NULL,
    time_s          REAL    NOT NULL,
    is_pulsar       INTEGER,
    ml_row          TEXT    NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_candidates_dm   ON candidates(dm);
CREATE INDEX IF NOT EXISTS idx_candidates_snr  ON candidates(snr);
CREATE INDEX IF NOT EXISTS idx_candidates_time ON candidates(time_s);
CREATE INDEX IF NOT EXISTS idx_candidates_obs  ON candidates(observation_key);
"""


class CandidateDB:
    """SQLite-backed pulse-candidate archive (schema above)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    # -- writes --------------------------------------------------------------
    def insert_run(self, **cols: Any) -> int:
        names = ", ".join(cols)
        marks = ", ".join("?" for _ in cols)
        cur = self._conn.execute(
            f"INSERT INTO runs ({names}) VALUES ({marks})", tuple(cols.values())
        )
        self._conn.commit()
        return int(cur.lastrowid)

    def insert_candidates(self, run_id: int, rows: Iterable[tuple]) -> list[int]:
        """Insert ``(obs_key, cluster_id, dm, snr, time_s, is_pulsar, ml_row)``
        tuples for one run; returns the new candidate ids in order."""
        ids: list[int] = []
        for row in rows:
            cur = self._conn.execute(
                "INSERT INTO candidates (run_id, observation_key, cluster_id,"
                " dm, snr, time_s, is_pulsar, ml_row)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (run_id, *row),
            )
            ids.append(int(cur.lastrowid))
        self._conn.commit()
        return ids

    # -- queries -------------------------------------------------------------
    def get_run(self, run_id: int) -> sqlite3.Row | None:
        return self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()

    def get_candidate(self, candidate_id: int) -> sqlite3.Row | None:
        return self._conn.execute(
            "SELECT * FROM candidates WHERE candidate_id = ?", (candidate_id,)
        ).fetchone()

    def query(
        self,
        *,
        dm_min: float | None = None,
        dm_max: float | None = None,
        snr_min: float | None = None,
        snr_max: float | None = None,
        time_min: float | None = None,
        time_max: float | None = None,
        observation_key: str | None = None,
        run_id: int | None = None,
        limit: int = 100,
    ) -> list[sqlite3.Row]:
        """Candidates filtered by DM / SNR / time windows (indexed columns)."""
        clauses: list[str] = []
        args: list[Any] = []
        for clause, value in (
            ("dm >= ?", dm_min), ("dm <= ?", dm_max),
            ("snr >= ?", snr_min), ("snr <= ?", snr_max),
            ("time_s >= ?", time_min), ("time_s <= ?", time_max),
            ("observation_key = ?", observation_key), ("run_id = ?", run_id),
        ):
            if value is not None:
                clauses.append(clause)
                args.append(value)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        args.append(limit)
        return self._conn.execute(
            "SELECT * FROM candidates" + where
            + " ORDER BY snr DESC, candidate_id LIMIT ?",
            args,
        ).fetchall()

    def recent(
        self, limit: int = 500, *, labeled_only: bool = True
    ) -> list[sqlite3.Row]:
        """Most recently stored candidates, newest first.

        The retraining controller's harvest window: ``labeled_only`` keeps
        rows whose ``is_pulsar`` verdict is recorded (every campaign run
        labels its candidates), so the harvest is a supervised sample of
        the *current* regime.
        """
        where = " WHERE is_pulsar IS NOT NULL" if labeled_only else ""
        return self._conn.execute(
            "SELECT * FROM candidates" + where
            + " ORDER BY candidate_id DESC LIMIT ?",
            (limit,),
        ).fetchall()

    def runs(self, limit: int = 50) -> list[sqlite3.Row]:
        return self._conn.execute(
            "SELECT * FROM runs ORDER BY run_id DESC LIMIT ?", (limit,)
        ).fetchall()

    def counts(self) -> tuple[int, int]:
        n_runs = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        n_cands = self._conn.execute("SELECT COUNT(*) FROM candidates").fetchone()[0]
        return int(n_runs), int(n_cands)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------
def _candidate_rows(batch: "PulseBatch") -> list[tuple]:
    """Per-pulse DB rows from a columnar batch (features by name)."""
    dm = batch.feature("SNRPeakDM")
    snr = batch.feature("MaxSNR")
    time_s = batch.feature("StartTime")
    lines = batch.to_ml_lines()
    rows: list[tuple] = []
    for i in range(len(batch)):
        rows.append((
            batch.observation_key[i],
            int(batch.cluster_id[i]),
            float(dm[i]),
            float(snr[i]),
            float(time_s[i]),
            int(batch.is_pulsar[i]),
            lines[i],
        ))
    return rows


def record_run(
    session: "MemoSession",
    *,
    kind: str,
    batch: "PulseBatch",
    config: Any = None,
    survey: str | None = None,
    seed: int | None = None,
    model_version: str | None = None,
    ml_output_path: str | None = None,
    obs_seq_range: tuple[int, int] | None = None,
    data_text: str | None = None,
    cluster_text: str | None = None,
    driver_params: dict[str, Any] | None = None,
    obs: Any = None,
) -> int:
    """Record one run + its candidates; returns the ``run_id``.

    ``data_text``/``cluster_text``/``driver_params`` make the run
    end-to-end reproducible (``reproducible=1``); a streaming run that
    cannot ship its raw inputs records provenance only.
    """
    store = session.store
    data_sha = store.put_blob(data_text.encode()) if data_text is not None else None
    cluster_sha = (
        store.put_blob(cluster_text.encode()) if cluster_text is not None else None
    )
    driver_sha = None
    if driver_params is not None:
        driver_sha = store.put_blob(
            pickle.dumps(driver_params, protocol=pickle.HIGHEST_PROTOCOL)
        )
    reproducible = int(
        data_sha is not None and cluster_sha is not None and driver_sha is not None
    )
    cfg_json = canonical_json(config)
    cfg_digest = digest([f"cfg{MEMO_FORMAT}", cfg_json])
    lineage_hash = digest([
        f"m{MEMO_FORMAT}", "run", kind, cfg_digest,
        data_sha or "-", cluster_sha or "-", driver_sha or "-",
    ])
    run_id = session.db.insert_run(
        kind=kind,
        survey=survey,
        seed=seed,
        config_digest=cfg_digest,
        config_json=cfg_json,
        lineage_hash=lineage_hash,
        model_version=model_version,
        data_sha=data_sha,
        cluster_sha=cluster_sha,
        driver_sha=driver_sha,
        ml_output_path=ml_output_path,
        n_pulses=len(batch),
        obs_seq_lo=obs_seq_range[0] if obs_seq_range else None,
        obs_seq_hi=obs_seq_range[1] if obs_seq_range else None,
        reproducible=reproducible,
    )
    ids = session.db.insert_candidates(run_id, _candidate_rows(batch))
    if obs is not None and getattr(obs, "enabled", False):
        from repro.obs.events import CANDIDATE_STORED

        for cid in ids:
            obs.emit(
                CANDIDATE_STORED, run_id=run_id, candidate_id=cid,
                lineage_hash=lineage_hash,
            )
    return run_id


def record_drapid_run(
    session: "MemoSession",
    *,
    result: "DRapidResult",
    config: Any,
    driver: "DRapidDriver",
    data_path: str,
    cluster_path: str,
    survey: str | None = None,
    seed: int | None = None,
    obs: Any = None,
) -> int:
    """Record a D-RAPID run with full raw inputs for later reproduction."""
    obs_range = None
    if obs is not None and getattr(obs, "enabled", False):
        obs_range = (0, obs.log.n_events)
    return record_run(
        session,
        kind="drapid",
        batch=result.pulse_batch,
        config=config,
        survey=survey,
        seed=seed,
        ml_output_path=result.ml_output_path,
        obs_seq_range=obs_range,
        data_text=driver.dfs.get(data_path).decode(),
        cluster_text=driver.dfs.get(cluster_path).decode(),
        driver_params={
            "grids": driver.grids,
            "params": driver.params,
            "num_partitions": driver.num_partitions,
        },
        obs=obs,
    )


# ---------------------------------------------------------------------------
# Reproduction
# ---------------------------------------------------------------------------
@dataclass
class ReproduceResult:
    """Outcome of replaying the lineage slice behind one candidate."""

    ok: bool
    candidate_id: int
    run_id: int
    observation_key: str
    stored_row: str
    replayed_rows: list[str] = field(default_factory=list)
    reason: str = ""


def _slice_text(text: str, key: str) -> str:
    """Keep headers plus the rows of one observation key (the lineage slice)."""
    prefix = key + ","
    kept = [
        line
        for line in text.splitlines()
        if line.startswith("#") or line.startswith(prefix)
    ]
    return "\n".join(kept) + ("\n" if kept else "")


def _load_driver_params(blob: bytes) -> dict[str, Any]:
    """Unpickle driver params through the model allowlist — blobs travel
    between machines like model files do, and get the same hardening."""
    from repro.ml.persistence import _ModelUnpickler

    params = _ModelUnpickler(io.BytesIO(blob)).load()
    if not isinstance(params, dict) or "params" not in params:
        raise ValueError("driver blob is not a recorded parameter dict")
    return params


def reproduce_candidate(
    session: "MemoSession", candidate_id: int
) -> ReproduceResult:
    """Replay only the lineage slice that produced one stored candidate.

    Slices the archived raw input files down to the candidate's observation
    key, re-runs the full D-RAPID dataflow on a fresh cluster with
    memoization off, and checks the stored ML row re-appears byte-identical.
    """
    cand = session.db.get_candidate(candidate_id)
    if cand is None:
        return ReproduceResult(
            ok=False, candidate_id=candidate_id, run_id=-1,
            observation_key="", stored_row="", reason="no such candidate",
        )
    run = session.db.get_run(cand["run_id"])
    base = ReproduceResult(
        ok=False,
        candidate_id=candidate_id,
        run_id=cand["run_id"],
        observation_key=cand["observation_key"],
        stored_row=cand["ml_row"],
    )
    if run is None or not run["reproducible"]:
        base.reason = "run was not recorded with raw inputs"
        return base

    store = session.store
    try:
        data_text = store.get_blob(run["data_sha"]).decode()
        cluster_text = store.get_blob(run["cluster_sha"]).decode()
        driver_params = _load_driver_params(store.get_blob(run["driver_sha"]))
    except (OSError, ValueError) as exc:
        base.reason = f"input blobs unavailable: {exc}"
        return base

    from repro.cluster import open_cluster
    from repro.core.drapid import DRapidDriver

    key = cand["observation_key"]
    with open_cluster(app_name="reproduce") as (dfs, ctx):
        dfs.put_text("/repro/data.csv", _slice_text(data_text, key))
        dfs.put_text("/repro/cluster.csv", _slice_text(cluster_text, key))
        driver = DRapidDriver(
            ctx=ctx,
            dfs=dfs,
            grids=driver_params["grids"],
            params=driver_params["params"],
            num_partitions=int(driver_params["num_partitions"]),
        )
        result = driver.run("/repro/data.csv", "/repro/cluster.csv", "/repro/ml")

    base.replayed_rows = result.pulse_batch.to_ml_lines()
    if cand["ml_row"] in base.replayed_rows:
        base.ok = True
    else:
        base.reason = "stored ML row not among replayed rows"
    return base
