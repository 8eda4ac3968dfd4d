"""repro.memo: lineage-hash memoization + persistent candidate database.

See DESIGN.md "Memoization & candidate store" for the hash recipe, the
invalidation rules, and the SQLite schema.
"""

from repro.memo.candidates import (
    CandidateDB,
    ReproduceResult,
    record_drapid_run,
    record_run,
    reproduce_candidate,
)
from repro.memo.config import MemoConfig, MemoSession, env_memo_config, resolve_memo
from repro.memo.hashing import (
    MEMO_FORMAT,
    callable_token,
    canonical_json,
    config_digest,
    job_key,
    lineage_token,
    token_for,
)
from repro.memo.store import MemoStats, MemoStore

__all__ = [
    "MEMO_FORMAT",
    "CandidateDB",
    "MemoConfig",
    "MemoSession",
    "MemoStats",
    "MemoStore",
    "ReproduceResult",
    "callable_token",
    "canonical_json",
    "config_digest",
    "env_memo_config",
    "job_key",
    "lineage_token",
    "record_drapid_run",
    "record_run",
    "reproduce_candidate",
    "resolve_memo",
    "token_for",
]
