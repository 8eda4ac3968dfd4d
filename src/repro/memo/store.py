"""MemoStore: durable, checksummed, content-addressed entries on disk.

Layout under one base directory::

    <dir>/objects/<kk>/<key>     checksummed pickled memo entries
    <dir>/blobs/<ss>/<sha>       raw content-addressed byte blobs (inputs)
    <dir>/candidates.sqlite      the candidate database (see candidates.py)

Every object file carries a header with the payload's SHA-256; a mismatch
(truncated write, flipped bit, concurrent corruption) evicts the file and
reads as a miss — a corrupted entry is *never* served, it is recomputed.
Every ``get`` reads and verifies the file, and unpickles fresh structures:
callers can mutate results without poisoning the cache.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any

__all__ = ["MemoStats", "MemoStore"]

_MAGIC = b"RMEMO1\n"


@dataclass
class MemoStats:
    """Counters a store keeps about itself (asserted all over the tests)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_evicted: int = 0
    uncacheable: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class MemoStore:
    """Local-disk content-addressed entry store."""

    path: str
    stats: MemoStats = field(default_factory=MemoStats)

    def __post_init__(self) -> None:
        self.path = os.path.abspath(self.path)
        os.makedirs(os.path.join(self.path, "objects"), exist_ok=True)
        os.makedirs(os.path.join(self.path, "blobs"), exist_ok=True)

    # -- entry API ----------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self.path, "objects", key[:2], key)

    def get(self, key: str) -> Any | None:
        """The stored value for ``key``, or None on miss (values are always
        dict entries here, so None is an unambiguous miss sentinel)."""
        fpath = self._entry_path(key)
        try:
            with open(fpath, "rb") as fh:
                magic = fh.read(len(_MAGIC))
                sha = fh.read(64)
                nl = fh.read(1)
                payload = fh.read()
        except OSError:
            self.stats.misses += 1
            return None
        if (magic != _MAGIC or nl != b"\n"
                or hashlib.sha256(payload).hexdigest().encode() != sha):
            self._evict_corrupt(fpath)
            self.stats.misses += 1
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._evict_corrupt(fpath)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> bool:
        """Persist ``value`` under ``key``; False if it cannot be pickled."""
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.stats.uncacheable += 1
            return False
        fpath = self._entry_path(key)
        os.makedirs(os.path.dirname(fpath), exist_ok=True)
        sha = hashlib.sha256(payload).hexdigest().encode()
        self._atomic_write(fpath, _MAGIC + sha + b"\n" + payload)
        self.stats.stores += 1
        return True

    def _evict_corrupt(self, fpath: str) -> None:
        try:
            os.unlink(fpath)
        except OSError:
            pass
        self.stats.corrupt_evicted += 1

    @staticmethod
    def _atomic_write(fpath: str, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(fpath), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, fpath)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- blob API (raw inputs for candidate reproduction) -------------------
    def _blob_path(self, sha: str) -> str:
        return os.path.join(self.path, "blobs", sha[:2], sha)

    def put_blob(self, data: bytes) -> str:
        """Store raw bytes content-addressed; returns their sha256 hex."""
        sha = hashlib.sha256(data).hexdigest()
        fpath = self._blob_path(sha)
        if not os.path.exists(fpath):
            os.makedirs(os.path.dirname(fpath), exist_ok=True)
            self._atomic_write(fpath, data)
        return sha

    def get_blob(self, sha: str) -> bytes:
        """Raw bytes for one content hash; verifies before returning."""
        fpath = self._blob_path(sha)
        with open(fpath, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != sha:
            self._evict_corrupt(fpath)
            raise ValueError(f"blob {sha} failed its checksum and was evicted")
        return data

    def has_blob(self, sha: str) -> bool:
        return os.path.exists(self._blob_path(sha))
