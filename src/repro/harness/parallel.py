"""Parallel sweep execution and on-disk result caching.

The paper's evaluation (Figs. 9-13) is a grid of *independent* experimental
points — variant × nodes × block size × fault plan — and every point is a
pure function of its :class:`~repro.harness.runner.JobSpec` + app params
(the determinism contract of docs/faults.md). That purity buys two things:

* **Process-pool execution** (:class:`SweepExecutor`): independent points
  shard across ``multiprocessing`` workers. Results are merged back in
  point order, so the output is byte-identical to the serial path no matter
  how the pool interleaves — asserted by tests/test_parallel_sweep.py.
* **Content-addressed caching** (:class:`ResultCache`): every point hashes
  its full configuration — machine (fabric ``sw`` table included), fault
  plan, seed, runner identity, app params — into a cache key
  (:func:`cache_key`). A re-run of an unchanged point is a cache hit and
  executes nothing; *any* change to an input produces a different key, so
  invalidation is automatic and exact.

A failing point never kills the sweep: its exception is captured per point
(:class:`SweepPointError`) and either re-raised after the sweep completes
(``on_error="raise"``, the default) or returned in the failed point's slot
(``on_error="capture"``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import tempfile
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.harness.metrics import VariantResult

#: bump when the cache file layout changes; mismatched files are invalidated
CACHE_SCHEMA = 1

#: default on-disk cache location (gitignored)
DEFAULT_CACHE_DIR = ".repro_cache"


# ----------------------------------------------------------------------
# canonical serialization & keys
# ----------------------------------------------------------------------
def runner_id(fn: Callable) -> str:
    """Stable identity of a runner function (``module:qualname``)."""
    return f"{fn.__module__}:{fn.__qualname__}"


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-serializable form.

    Dataclasses (JobSpec, Machine, Fabric, FaultPlan, app params, ...)
    become ``{"__dataclass__": ClassName, <fields>...}``; dicts are emitted
    with their keys (``json.dumps(sort_keys=True)`` orders them); sets and
    frozensets are sorted; numpy scalars/arrays become plain numbers/lists.
    Anything unknown falls back to ``repr`` — stable for the value types
    used in specs.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__dataclass__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonicalize(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonicalize(v) for v in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.generic):
        return obj.item()
    if callable(obj):
        return {"__callable__": runner_id(obj)}
    return {"__repr__": repr(obj)}


def cache_key(run_fn: Callable, spec, params, run_kwargs: Optional[dict] = None) -> str:
    """Content hash of one experimental point.

    Covers the runner's identity, the full :class:`JobSpec` (machine with
    its fabric ``sw`` cost table, fault plan, seed, polling period, ...),
    the app params, and any extra runner kwargs. Two points collide iff
    their canonical serializations are identical — which, by the purity
    contract, means their results are identical.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "runner": runner_id(run_fn),
        "spec": canonicalize(spec),
        "params": canonicalize(params),
        "kwargs": canonicalize(run_kwargs or {}),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# result (de)serialization
# ----------------------------------------------------------------------
def _encode_extra_value(v: Any) -> Any:
    if isinstance(v, np.ndarray):
        return {"__ndarray__": v.tolist(), "dtype": str(v.dtype)}
    if isinstance(v, np.generic):
        return v.item()
    return v


def _decode_extra_value(v: Any) -> Any:
    if isinstance(v, dict) and "__ndarray__" in v:
        return np.array(v["__ndarray__"], dtype=v["dtype"])
    return v


def encode_result(result: VariantResult) -> dict:
    return {
        "variant": result.variant,
        "n_nodes": result.n_nodes,
        "throughput": result.throughput,
        "sim_time": result.sim_time,
        "throughput_nr": result.throughput_nr,
        "extra": {k: _encode_extra_value(v) for k, v in result.extra.items()},
    }


def decode_result(data: dict) -> VariantResult:
    return VariantResult(
        variant=data["variant"],
        n_nodes=data["n_nodes"],
        throughput=data["throughput"],
        sim_time=data["sim_time"],
        throughput_nr=data["throughput_nr"],
        extra={k: _decode_extra_value(v) for k, v in data["extra"].items()},
    )


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss/store/invalidation counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class ResultCache:
    """Persistent content-addressed store of :class:`VariantResult`\\ s.

    One JSON file per key under ``root`` (default ``.repro_cache/``,
    gitignored). Keys come from :func:`cache_key`, so the cache never
    returns a stale result: changing any input changes the key, and the old
    entry is simply never looked up again. Files whose schema version does
    not match :data:`CACHE_SCHEMA` (or that fail to parse) are deleted and
    counted as invalidations.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR):
        self.root = root
        self.stats = CacheStats()
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Optional[VariantResult]:
        path = self._path(key)
        try:
            with open(path) as fh:
                data = json.load(fh)
            if data.get("schema") != CACHE_SCHEMA:
                raise ValueError("schema mismatch")
            result = decode_result(data["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError):
            self.stats.invalidations += 1
            self.stats.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result: VariantResult,
            meta: Optional[dict] = None) -> None:
        data = {"schema": CACHE_SCHEMA, "key": key,
                "result": encode_result(result)}
        if meta:
            data["meta"] = meta
        # atomic write: a concurrent reader never sees a torn file
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(data, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        for name in os.listdir(self.root):
            if name.endswith(".json"):
                os.unlink(os.path.join(self.root, name))
                n += 1
        return n

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root) if name.endswith(".json"))


# ----------------------------------------------------------------------
# sweep points and execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One independent experimental point of a sweep.

    ``run_fn(spec, params, **run_kwargs)`` must be a *top-level* function
    (picklable by reference — every app runner is) returning a
    :class:`VariantResult`. ``label`` is a human-readable tuple used in
    error messages and cache metadata, e.g. ``("tagaspi", 16)``.
    """

    run_fn: Callable
    spec: Any
    params: Any
    run_kwargs: Dict[str, Any] = field(default_factory=dict)
    label: Tuple = ()

    def run(self) -> VariantResult:
        return self.run_fn(self.spec, self.params, **self.run_kwargs)

    def key(self) -> str:
        return cache_key(self.run_fn, self.spec, self.params, self.run_kwargs)


class SweepPointError(RuntimeError):
    """One sweep point failed; carries the point's label and the captured
    traceback. ``cause`` is the original exception when it survived the
    trip back from the worker process (standard exceptions do)."""

    def __init__(self, label: Tuple, exc_type: str, tb: str,
                 cause: Optional[BaseException] = None):
        super().__init__(f"sweep point {label!r} failed with {exc_type}\n{tb}")
        self.label = label
        self.exc_type = exc_type
        self.traceback_str = tb
        self.cause = cause


def _execute_point(point: SweepPoint):
    """Worker-side execution with error capture. Returns ``(True, result)``
    or ``(False, (exc_type_name, exc_or_None, traceback_str))``; the
    exception object is dropped if it cannot cross the process boundary."""
    try:
        return True, point.run()
    except Exception as exc:  # noqa: BLE001 - per-point isolation is the point
        tb = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = None
        return False, (type(exc).__name__ if exc is not None else "Exception",
                       exc, tb)


def _default_mp_context():
    # fork is both faster (no re-import) and more permissive (closures and
    # test-module functions pickle by reference); fall back to spawn where
    # fork does not exist (Windows, some macOS configurations).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class SweepExecutor:
    """Runs independent sweep points, optionally across worker processes
    and through a :class:`ResultCache`.

    Parameters
    ----------
    workers:
        Process count. ``1`` (default) executes inline — the serial
        reference path. ``N > 1`` shards cache misses across a
        ``ProcessPoolExecutor``; results are merged in point order, so the
        output is byte-identical to ``workers=1``.
    cache:
        A :class:`ResultCache`, a directory path for one, or ``None`` to
        disable caching.
    on_error:
        ``"raise"`` (default): finish every point, then raise the first
        failure in point order (the original exception when available).
        ``"capture"``: failed points yield their :class:`SweepPointError`
        in the result list instead.
    mp_context:
        A multiprocessing start-method name (``"fork"``/``"spawn"``) or
        context object; default prefers fork.
    """

    def __init__(self, workers: int = 1,
                 cache: Union[ResultCache, str, None] = None,
                 on_error: str = "raise",
                 mp_context=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if on_error not in ("raise", "capture"):
            raise ValueError(
                f"on_error must be 'raise' or 'capture', got {on_error!r}")
        self.workers = workers
        self.cache = ResultCache(cache) if isinstance(cache, str) else cache
        self.on_error = on_error
        if isinstance(mp_context, str):
            mp_context = multiprocessing.get_context(mp_context)
        self._mp_context = mp_context
        #: points actually executed (cache misses) across all map() calls
        self.executed_points = 0

    # ------------------------------------------------------------------
    def map(self, points: Sequence[SweepPoint]) -> List[Any]:
        """Run every point; returns results in point order.

        Cache hits are returned without executing; failures are captured
        per point (see ``on_error``). Successful results of cache misses
        are stored back into the cache.
        """
        points = list(points)
        results: List[Any] = [None] * len(points)
        to_run: List[Tuple[int, Optional[str], SweepPoint]] = []
        for i, pt in enumerate(points):
            key = None
            if self.cache is not None:
                key = pt.key()
                hit = self.cache.get(key)
                if hit is not None:
                    results[i] = hit
                    continue
            to_run.append((i, key, pt))

        self.executed_points += len(to_run)
        if self.workers > 1 and len(to_run) > 1:
            outcomes = self._run_pool([pt for _i, _k, pt in to_run])
        else:
            outcomes = [_execute_point(pt) for _i, _k, pt in to_run]

        first_error: Optional[SweepPointError] = None
        for (i, key, pt), (ok, payload) in zip(to_run, outcomes):
            if ok:
                results[i] = payload
                if self.cache is not None and isinstance(payload, VariantResult):
                    self.cache.put(key, payload,
                                   meta={"label": list(pt.label),
                                         "runner": runner_id(pt.run_fn)})
            else:
                exc_type, cause, tb = payload
                err = SweepPointError(pt.label, exc_type, tb, cause=cause)
                results[i] = err
                if first_error is None:
                    first_error = err
        if first_error is not None and self.on_error == "raise":
            if first_error.cause is not None:
                raise first_error.cause
            raise first_error
        return results

    def _run_pool(self, points: List[SweepPoint]) -> List[Tuple[bool, Any]]:
        ctx = self._mp_context or _default_mp_context()
        n = min(self.workers, len(points))
        with ProcessPoolExecutor(max_workers=n, mp_context=ctx) as pool:
            futures = [pool.submit(_execute_point, pt) for pt in points]
            return [f.result() for f in futures]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Executed-point count plus the cache's counters (zeros when no
        cache is attached)."""
        out = {"executed": self.executed_points}
        cache_stats = (self.cache.stats if self.cache is not None
                       else CacheStats())
        out.update(cache_stats.as_dict())
        return out
