"""Canonical structural hashing: the lineage-hash recipe.

Memoization is only sound if the key captures *everything* a job's output
depends on and *nothing* that varies between identical runs.  The recipe:

- **Values** serialize through :func:`token_for`: dict items are sorted by
  key token (insertion order is an accident of construction), floats use
  ``repr`` (shortest exact round-trip, stable across processes), NumPy
  arrays hash dtype + shape + raw bytes, dataclasses hash their class name
  plus field dict.  Nothing here consults ``hash()`` — Python's string
  hashing is ``PYTHONHASHSEED``-randomized and must not leak into keys.
- **Code** hashes structurally: bytecode, names, recursively-tokenized
  constants, defaults and closure cell contents.  Two processes compiling
  the same source produce the same token; editing a lambda changes it.
- **Lineage** folds an RDD's operator chain bottom-up: leaf inputs hash
  their *content* (a ``textFile`` hashes the file bytes, so regenerated
  input with one flipped byte invalidates every downstream key), narrow
  transformations hash their function, shuffle boundaries hash the
  partitioner and aggregator.  Process-variable identifiers — rdd ids,
  shuffle ids, context uids, executor names — are deliberately excluded,
  which is what makes keys stable across runs and processes.

``MEMO_FORMAT`` is folded into every key; bump it when the recipe or the
stored entry layout changes and every old cache entry silently misses.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import types
from typing import Any, Callable, Iterable

__all__ = [
    "MEMO_FORMAT",
    "callable_token",
    "canonical_json",
    "config_digest",
    "digest",
    "file_token",
    "job_key",
    "lineage_token",
    "token_for",
]

#: Cache format version; part of every key.
#: 2: JobMetrics gained a ``pool`` field (pickled inside stored job entries).
MEMO_FORMAT = 2


def digest(parts: Iterable[str]) -> str:
    """Fold string tokens into one hex digest."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "surrogatepass"))
        h.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Value tokens
# ---------------------------------------------------------------------------
def token_for(obj: Any) -> str:
    """Canonical token of a value, insensitive to dict order and process."""
    if obj is None:
        return "N"
    if obj is True:
        return "T"
    if obj is False:
        return "F"
    t = type(obj)
    if t is int:
        return f"i{obj}"
    if t is float:
        # repr is the shortest decimal that round-trips exactly; two floats
        # get equal tokens iff they are the same double.
        return f"f{obj!r}"
    if t is str:
        return f"s{obj}"
    if t is bytes:
        return "b" + hashlib.sha256(obj).hexdigest()
    if t is complex:
        return f"c{obj.real!r}:{obj.imag!r}"
    if t in (list, tuple):
        return digest([f"L{len(obj)}", *[token_for(x) for x in obj]])
    if t is dict:
        items = sorted((token_for(k), token_for(v)) for k, v in obj.items())
        return digest(["D", *[kt + "=" + vt for kt, vt in items]])
    if t in (set, frozenset):
        return digest(["S", *sorted(token_for(x) for x in obj)])
    return _token_for_object(obj)


def _token_for_object(obj: Any) -> str:
    import numpy as np

    # A class may opt into an explicit, minimal identity (used to strip
    # process-variable fields like accumulator context uids).
    memo_token = getattr(obj, "memo_token", None)
    if callable(memo_token):
        return memo_token()
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        if arr.dtype == object:
            return digest(["npo", str(arr.shape),
                           *[token_for(x) for x in arr.ravel().tolist()]])
        return digest(["np", str(arr.dtype), str(arr.shape),
                       hashlib.sha256(arr.tobytes()).hexdigest()])
    if isinstance(obj, np.generic):
        return digest(["nps", str(obj.dtype), token_for(obj.item())])
    if isinstance(obj, (types.FunctionType, types.BuiltinFunctionType,
                        types.MethodType, functools.partial)):
        return callable_token(obj)
    if isinstance(obj, type):
        return f"cls:{obj.__module__}.{obj.__qualname__}"
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name)
                  for f in dataclasses.fields(obj) if f.compare}
        return digest([f"dc:{type(obj).__module__}.{type(obj).__qualname__}",
                       token_for(fields)])
    # Last resort: qualified class name + pickled state.  Reached only by
    # types the recipe has no structural rule for; cloudpickle output is
    # stable for a fixed interpreter and construction path.
    import cloudpickle

    return digest([f"pk:{type(obj).__module__}.{type(obj).__qualname__}",
                   token_for(hashlib.sha256(cloudpickle.dumps(obj)).hexdigest())])


# ---------------------------------------------------------------------------
# Code tokens
# ---------------------------------------------------------------------------
def _code_token(code: types.CodeType) -> str:
    parts = [
        "code",
        code.co_code.hex(),
        str(code.co_argcount),
        ",".join(code.co_names),
        ",".join(code.co_freevars),
    ]
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            parts.append(_code_token(const))  # nested lambdas/comprehensions
        else:
            parts.append(token_for(const))
    return digest(parts)


def callable_token(fn: Callable[..., Any]) -> str:
    """Structural token of a callable: code + defaults + closure contents."""
    if isinstance(fn, functools.partial):
        return digest(["partial", callable_token(fn.func),
                       token_for(list(fn.args)), token_for(fn.keywords)])
    if isinstance(fn, types.MethodType):
        return digest(["method", callable_token(fn.__func__),
                       token_for(fn.__self__)])
    if isinstance(fn, types.FunctionType):
        parts = [f"fn:{fn.__qualname__}", _code_token(fn.__code__)]
        if fn.__defaults__:
            parts.append(token_for(list(fn.__defaults__)))
        if fn.__closure__:
            for cell in fn.__closure__:
                try:
                    parts.append(token_for(cell.cell_contents))
                except ValueError:  # empty cell (recursive def mid-creation)
                    parts.append("cell:empty")
        return digest(parts)
    if isinstance(fn, types.BuiltinFunctionType):
        return f"builtin:{getattr(fn, '__module__', '')}.{fn.__qualname__}"
    if callable(fn):
        call = type(fn).__call__
        return digest(["callable", _token_for_object(fn),
                       callable_token(call) if isinstance(
                           call, types.FunctionType) else repr(call)])
    raise TypeError(f"not callable: {fn!r}")


# ---------------------------------------------------------------------------
# Canonical JSON (config digests, DB provenance columns)
# ---------------------------------------------------------------------------
def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, repr floats, dataclasses as dicts.

    Used for the candidate database's ``config_json`` column and for
    config digests — two configs serialize identically iff they would
    produce the same run.
    """
    import json

    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def _jsonable(obj: Any) -> Any:
    import numpy as np

    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)  # exact round-trip; json.dumps floats match repr
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": str(obj.dtype), "shape": list(obj.shape),
                "sha256": hashlib.sha256(
                    np.ascontiguousarray(obj).tobytes()).hexdigest()}
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__class__": type(obj).__qualname__}
        for f in dataclasses.fields(obj):
            if f.compare:
                out[f.name] = _jsonable(getattr(obj, f.name))
        return out
    if callable(obj):
        return {"__callable__": callable_token(obj)}
    return {"__token__": token_for(obj)}


def config_digest(config: Any) -> str:
    """Stable digest of a config object (any dataclass / dict / scalar)."""
    return digest([f"cfg{MEMO_FORMAT}", token_for(config)])


# ---------------------------------------------------------------------------
# Lineage tokens
# ---------------------------------------------------------------------------
def file_token(dfs: Any, path: str) -> str:
    """Content hash of one DFS file (the leaf of every textFile lineage)."""
    return digest(["dfsfile", path,
                   hashlib.sha256(dfs.get(path)).hexdigest()])


def lineage_token(rdd: Any, cache: dict[int, str] | None = None) -> str:
    """Structural hash of an RDD's full lineage (operators + leaf content).

    ``cache`` memoizes per ``rdd_id`` within one key computation so diamond
    lineages (the D-RAPID join reads two chains off one file) hash each
    node once; it must not outlive the call — rdd ids are process-local.
    """
    from repro.sparklet import rdd as rdd_mod

    if cache is None:
        cache = {}
    hit = cache.get(rdd.rdd_id)
    if hit is not None:
        return hit

    parts = [type(rdd).__name__, str(rdd.num_partitions)]
    if rdd.partitioner is not None:
        parts.append(token_for(rdd.partitioner))
    if isinstance(rdd, rdd_mod.TextFileRDD):
        parts.append(file_token(rdd.dfs, rdd.path))
    elif isinstance(rdd, rdd_mod.ParallelCollectionRDD):
        parts.append(token_for(rdd._slices))
    elif isinstance(rdd, rdd_mod.MapPartitionsRDD):
        parts.append(callable_token(rdd.f))
    for dep in rdd.deps:
        parts.append(_dep_token(dep, cache))
    token = digest(parts)
    cache[rdd.rdd_id] = token
    return token


def _dep_token(dep: Any, cache: dict[int, str]) -> str:
    from repro.sparklet import rdd as rdd_mod

    parts = [type(dep).__name__, lineage_token(dep.rdd, cache)]
    if isinstance(dep, rdd_mod.ShuffleDependency):
        parts.append(token_for(dep.partitioner))
        parts.append("msc" if dep.map_side_combine else "raw")
        agg = dep.aggregator
        if agg is not None:
            parts.append(callable_token(agg.create_combiner))
            parts.append(callable_token(agg.merge_value))
            parts.append(callable_token(agg.merge_combiners))
    return digest(parts)


def job_key(rdd: Any, func: Callable[..., Any]) -> str:
    """Memo key of one whole job (action): lineage + action body."""
    return digest([
        f"m{MEMO_FORMAT}",
        "job",
        lineage_token(rdd),
        callable_token(func),
    ])
