"""Shared-memory transport for the parallel Sparklet backend.

Driver and worker processes exchange column batches (and arbitrary task
payloads) through ``multiprocessing.shared_memory`` segments.  An object is
encoded with cloudpickle at pickle protocol 5: every buffer-exporting value
(NumPy arrays — i.e. the hot dataplane columns) is split out of the pickle
stream via ``buffer_callback`` and written raw into one shared segment,
while the small residual pickle (closures, Python scalars, batch shells)
travels inline.  Decoding attaches the segment and rebuilds the arrays from
copies of the raw bytes — a pair of memcpys instead of pickling megabytes
of column data through a pipe ("zero-pickle" for the arrays themselves).

Cleanup is guaranteed two ways:

- every segment this process creates or learns about is tracked in a
  process-global :class:`ShmRegistry`; owners release deterministically
  (job end, shuffle invalidation, context close) and an ``atexit`` hook
  releases whatever is left;
- segment names all share a per-driver-run prefix, so the atexit hook also
  sweeps ``/dev/shm`` for stragglers left by crashed workers — a worker
  killed mid-encode cannot leak a segment past driver shutdown.

Python 3.11's ``SharedMemory`` has no ``track=False`` knob, so this module
patches ``resource_tracker.register``/``unregister`` to ignore names under
the sparklet prefix (the standard pre-3.13 workaround).  Lifetime is
managed here; the tracker must stay out entirely because its per-name
bookkeeping is a *set* shared by every process in the tree — balanced
register/unregister pairs from two processes attaching the same segment
still collapse into one entry and the second unregister crashes the
tracker with a KeyError.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable

import cloudpickle

__all__ = [
    "Blob",
    "SegmentWriter",
    "ShmRegistry",
    "attach_segment",
    "create_segment",
    "decode",
    "encode",
    "registry",
    "run_prefix",
]

#: Buffers totalling less than this ride inline in the (queue-pickled) Blob
#: instead of a dedicated segment — tiny results should not churn /dev/shm.
INLINE_LIMIT = 64 * 1024


#: Every segment name in every process starts with this; it is both the
#: tracker-suppression namespace and the /dev/shm sweep key space.
_NAMESPACE = "sparklet"


def run_prefix() -> str:
    """Per-driver-run segment name prefix (also the /dev/shm sweep key)."""
    return f"{_NAMESPACE}{os.getpid():x}"


def _is_ours(name: str) -> bool:
    return name.lstrip("/").startswith(_NAMESPACE)


def _install_tracker_bypass() -> None:
    """Keep the resource tracker blind to sparklet segments, everywhere.

    Installed at import time, so workers (which import this module before
    touching any segment) are covered too.  Idempotent.
    """
    if getattr(resource_tracker, "_sparklet_bypass", False):  # pragma: no cover
        return
    orig_register = resource_tracker.register
    orig_unregister = resource_tracker.unregister

    def register(name: str, rtype: str) -> None:
        if rtype == "shared_memory" and _is_ours(name):
            return
        orig_register(name, rtype)

    def unregister(name: str, rtype: str) -> None:
        if rtype == "shared_memory" and _is_ours(name):
            return
        orig_unregister(name, rtype)

    resource_tracker.register = register
    resource_tracker.unregister = unregister
    resource_tracker._sparklet_bypass = True


_install_tracker_bypass()


def create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    return shared_memory.SharedMemory(name=name, create=True, size=max(1, size))


def attach_segment(name: str) -> shared_memory.SharedMemory:
    return shared_memory.SharedMemory(name=name)


@dataclass
class Blob:
    """Handle to one encoded object; small and queue-picklable.

    ``meta`` is the protocol-5 pickle stream with out-of-band buffers
    removed; ``buffers`` locates each buffer as ``(offset, length)`` inside
    ``segment``.  When the buffers are small they are carried ``inline``
    instead and ``segment`` is ``None``.
    """

    meta: bytes
    segment: str | None = None
    buffers: list[tuple[int, int]] = field(default_factory=list)
    inline: list[bytes] | None = None
    nbytes: int = 0


def _dump(obj: Any) -> tuple[bytes, list[pickle.PickleBuffer]]:
    out: list[pickle.PickleBuffer] = []
    meta = cloudpickle.dumps(obj, protocol=5, buffer_callback=out.append)
    return meta, out


class SegmentWriter:
    """Packs the out-of-band buffers of many objects into ONE segment.

    A map task produces one bucket per reduce partition; packing them all
    into a single segment keeps the segment count at one per task instead
    of one per (task, reducer) pair.  Small jobs whose buffers fit under
    :data:`INLINE_LIMIT` produce no segment at all.
    """

    def __init__(self, name_fn: Callable[[], str]) -> None:
        self._name_fn = name_fn
        self._entries: list[tuple[bytes, list[pickle.PickleBuffer], int]] = []
        self._total = 0

    def add(self, obj: Any) -> int:
        meta, bufs = _dump(obj)
        nbytes = len(meta) + sum(len(b.raw()) for b in bufs)
        self._entries.append((meta, bufs, nbytes))
        self._total += sum(len(b.raw()) for b in bufs)
        return len(self._entries) - 1

    def seal(self) -> tuple[list[Blob], str | None, int]:
        """Write buffers out; returns (blobs, segment name or None, size)."""
        if self._total < INLINE_LIMIT:
            blobs = [
                Blob(meta=meta, inline=[b.raw().tobytes() for b in bufs], nbytes=nbytes)
                for meta, bufs, nbytes in self._entries
            ]
            for _meta, bufs, _n in self._entries:
                for b in bufs:
                    b.release()
            return blobs, None, 0
        name = self._name_fn()
        seg = create_segment(name, self._total)
        try:
            offset = 0
            blobs = []
            for meta, bufs, nbytes in self._entries:
                spans: list[tuple[int, int]] = []
                for buf in bufs:
                    raw = buf.raw()
                    length = len(raw)
                    seg.buf[offset : offset + length] = raw
                    spans.append((offset, length))
                    offset += length
                    buf.release()
                blobs.append(Blob(meta=meta, segment=name, buffers=spans, nbytes=nbytes))
            size = seg.size
        finally:
            seg.close()
        return blobs, name, size


def encode(obj: Any, name_fn: Callable[[], str]) -> tuple[Blob, str | None, int]:
    """Encode one object; returns (blob, created segment or None, size)."""
    writer = SegmentWriter(name_fn)
    writer.add(obj)
    blobs, name, size = writer.seal()
    return blobs[0], name, size


def decode(blob: Blob) -> Any:
    """Rebuild the object.  Array bytes are *copied* out of the segment, so
    the result is writable and outlives any later segment release."""
    if blob.inline is not None:
        return pickle.loads(blob.meta, buffers=[bytearray(b) for b in blob.inline])
    if blob.segment is None:
        return pickle.loads(blob.meta)
    seg = attach_segment(blob.segment)
    try:
        views = [bytearray(seg.buf[off : off + length]) for off, length in blob.buffers]
    finally:
        seg.close()
    return pickle.loads(blob.meta, buffers=views)


class ShmRegistry:
    """Process-global ledger of live segments, keyed by name.

    ``owner`` groups segments by the context (or subsystem) that created
    them so a closing :class:`SparkletContext` can release exactly its own.
    ``release`` is idempotent and tolerates a name already unlinked by a
    sweep — cleanup paths may overlap, never double-free.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: dict[str, tuple[int, str]] = {}

    def register(self, name: str, nbytes: int, owner: str = "") -> None:
        with self._lock:
            self._segments[name] = (nbytes, owner)

    def names(self) -> list[str]:
        with self._lock:
            return list(self._segments)

    def release(self, name: str) -> bool:
        with self._lock:
            known = self._segments.pop(name, None) is not None
        return _unlink(name) or known

    def release_owner(self, owner: str) -> int:
        with self._lock:
            victims = [n for n, (_b, o) in self._segments.items() if o == owner]
            for n in victims:
                del self._segments[n]
        for n in victims:
            _unlink(n)
        return len(victims)

    def release_all(self) -> int:
        with self._lock:
            victims = list(self._segments)
            self._segments.clear()
        for n in victims:
            _unlink(n)
        return len(victims)


def _unlink(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        seg.close()
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a race with another closer
        return False
    return True


def sweep(prefix: str | None = None) -> list[str]:
    """Unlink every /dev/shm segment left under this run's prefix.

    Catches segments created by workers that died before the driver learned
    their names.  Returns the names removed (the leak test asserts []).
    """
    prefix = prefix or run_prefix()
    shm_dir = "/dev/shm"
    removed: list[str] = []
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return removed
    for entry in os.listdir(shm_dir):
        if entry.startswith(prefix):
            if _unlink(entry):
                removed.append(entry)
    return removed


def live_segments(prefix: str | None = None) -> list[str]:
    """Names currently present in /dev/shm under this run's prefix."""
    prefix = prefix or run_prefix()
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    return sorted(e for e in os.listdir(shm_dir) if e.startswith(prefix))


#: The one registry of this process.
registry = ShmRegistry()


def cleanup_all() -> None:
    """Release every tracked segment, then sweep the run prefix."""
    registry.release_all()
    sweep()


atexit.register(cleanup_all)
