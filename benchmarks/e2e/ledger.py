"""The per-layer wall-clock ledger of one traced rep.

A *layer* is a directory under ``src/repro/``. The traced rep runs under
``cProfile``; every function's self time goes to the layer its file lives
in, and a call enters a layer when its caller's file is in another one.
C builtins have no file: their self time is charged to the calling
function's file (cProfile records it per caller), so ``heappush`` inside
the engine is engine time, and as callers they count as ``other``.
Everything outside ``src/repro/`` (stdlib, numpy, this benchmark) and any
``repro`` directory not in :data:`LAYERS` is ``other``.

Self-time shares under cProfile over-weight call-heavy layers (the
profiler charges a fixed cost per call), so they compare between commits,
not against ``wall_s``.

Three thin wrappers count what the profile cannot: messages per
``Cluster.send_batch`` and how many batches ``batch_eligible`` admits.
They are installed only for the traced rep.
"""

from __future__ import annotations

import cProfile
import pstats
import re
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent

LAYERS = ("sim", "network", "mpi", "gaspi", "tasking", "tampi", "core",
          "collectives", "apps", "harness", "trace", "analysis", "perf",
          "other")

#: files whose self time is reported on its own (the ROADMAP's suspects)
FILES = ("sim/engine", "sim/events", "sim/process", "harness/runner",
         "network/topology", "network/batch", "mpi/comm", "mpi/matching",
         "mpi/requests", "mpi/rma", "tasking/scheduler", "tasking/runtime",
         "tasking/dependencies", "gaspi/proc", "core/tagaspi",
         "tampi/library")

#: metric name -> (file, function names whose calls are summed)
CALL_COUNTS = {
    "sim.engine.step_calls": ("sim/engine", ("step",)),
    "sim.engine.run_calls": ("sim/engine", ("run",)),
    "sim.engine.peek_calls": ("sim/engine", ("peek",)),
    "sim.engine.schedule_calls": ("sim/engine", ("schedule",)),
    "sim.engine.schedule_batch_calls": ("sim/engine", ("schedule_batch",)),
    "sim.engine.timeout_calls": ("sim/engine", ("timeout",)),
    "mpi.matching.ops": ("mpi/matching", ("post_recv", "incoming")),
    "tasking.submit_calls": ("tasking/runtime", ("submit",)),
}


@lru_cache(maxsize=None)
def _locate(filename: str) -> Tuple[str, str]:
    """``(layer, 'layer/stem')`` of a profiled file; ``other`` outside
    the known layer directories (and for cProfile's ``~``, a builtin)."""
    try:
        rel = Path(filename).resolve().relative_to(SRC)
    except (ValueError, OSError):
        return "other", ""
    if len(rel.parts) < 2 or rel.parts[0] not in LAYERS:
        return "other", ""
    return rel.parts[0], f"{rel.parts[0]}/{rel.stem}"


def _defines(file_key: str, func: str) -> bool:
    """Whether ``src/repro/<file_key>.py`` still defines ``func``."""
    path = SRC / f"{file_key}.py"
    return path.is_file() and re.search(
        rf"^\s*def {re.escape(func)}\(", path.read_text(), re.M) is not None


@contextmanager
def _count_wire_calls(counts: Dict[str, Optional[int]]):
    """Wrap ``Cluster.send``, ``Cluster.send_batch`` and
    ``network.batch.batch_eligible`` with counters for the ``with`` body.
    A name that no longer exists leaves its counters ``None``."""
    import repro.network as network
    try:
        from repro.network import batch as batch_mod
    except ImportError:
        batch_mod = None

    cluster = getattr(network, "Cluster", None)
    undo: list = []

    def wrap(owner, attr: str, make: Callable) -> None:
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            return
        setattr(owner, attr, make(orig))
        undo.append((owner, attr, orig))

    def make_send(orig):
        counts["network.send_calls"] = 0

        def send(self, msg, *a, **kw):
            counts["network.send_calls"] += 1
            return orig(self, msg, *a, **kw)
        return send

    def make_send_batch(orig):
        counts["network.send_batch_calls"] = 0
        counts["network.send_batch_msgs"] = 0

        def send_batch(self, msgs, *a, **kw):
            counts["network.send_batch_calls"] += 1
            counts["network.send_batch_msgs"] += len(msgs)
            return orig(self, msgs, *a, **kw)
        return send_batch

    def make_eligible(orig):
        counts["batch_attempted"] = 0
        counts["batch_eligible"] = 0

        def batch_eligible(cluster, msgs):
            ok = orig(cluster, msgs)
            counts["batch_attempted"] += 1
            counts["batch_eligible"] += bool(ok)
            return ok
        return batch_eligible

    wrap(cluster, "send", make_send)
    wrap(cluster, "send_batch", make_send_batch)
    wrap(batch_mod, "batch_eligible", make_eligible)
    try:
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def profile(fn: Callable[[], object]):
    """Run ``fn()`` under cProfile and the wire counters; returns
    ``(fn's result, ledger dict)``. The ledger is what
    ``ledger_<workload>.json`` holds; :func:`metrics` names its rows."""
    counts: Dict[str, Optional[int]] = {}
    prof = cProfile.Profile()
    with _count_wire_calls(counts):
        prof.enable()
        try:
            result = fn()
        finally:
            prof.disable()
    return result, _bucket(pstats.Stats(prof).stats, counts)


def _bucket(stats: dict, counts: Dict[str, Optional[int]]) -> dict:
    layer_self = {name: 0.0 for name in LAYERS}
    calls_in = {name: 0 for name in LAYERS}
    matrix = {a: {b: 0 for b in LAYERS} for a in LAYERS}
    file_self: Dict[str, float] = {}
    func_calls: Dict[Tuple[str, str], int] = {}

    def charge(layer: str, file_key: str, seconds: float) -> None:
        layer_self[layer] += seconds
        if file_key:
            file_self[file_key] = file_self.get(file_key, 0.0) + seconds

    for (filename, _line, name), (_cc, ncalls, tt, _ct, callers) in stats.items():
        builtin = filename == "~"
        layer, file_key = _locate(filename)
        if file_key:
            func_calls[(file_key, name)] = (
                func_calls.get((file_key, name), 0) + ncalls)
        if not builtin or not callers:
            charge(layer, file_key, tt)
        for (c_file, _c_line, _c_name), (c_calls, _c_cc, c_tt, _c_ct) \
                in callers.items():
            c_layer, c_key = _locate(c_file)
            if builtin:
                charge(c_layer, c_key, c_tt)
            if c_layer != layer:
                calls_in[layer] += c_calls
                matrix[c_layer][layer] += c_calls

    total = sum(layer_self.values())
    return {
        "total_self_s": total,
        "layers": {
            name: {"self_s": layer_self[name],
                   "share": layer_self[name] / total if total else 0.0,
                   "calls_in": calls_in[name]}
            for name in LAYERS
        },
        "files": dict(sorted(file_self.items())),
        "function_calls": {f"{k}:{fn}": n
                           for (k, fn), n in sorted(func_calls.items())},
        "call_matrix": matrix,
        "wire_counts": counts,
    }


def metrics(ledger: dict) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Named per-layer metrics of one ledger, plus a note for every name
    reported as ``None`` because its directory, file or function is gone."""
    out: Dict[str, Optional[float]] = {}
    notes: Dict[str, str] = {}

    for layer, row in ledger["layers"].items():
        present = layer == "other" or (SRC / layer).is_dir()
        for field in ("self_s", "share", "calls_in"):
            out[f"{layer}.{field}"] = row[field] if present else None
            if not present:
                notes[f"{layer}.{field}"] = f"src/repro/{layer}/ is gone"

    for file_key in FILES:
        name = file_key.replace("/", ".") + ".self_s"
        if (SRC / f"{file_key}.py").is_file():
            out[name] = ledger["files"].get(file_key, 0.0)
        else:
            out[name] = None
            notes[name] = f"src/repro/{file_key}.py is gone"

    for name, (file_key, funcs) in CALL_COUNTS.items():
        live = [f for f in funcs if _defines(file_key, f)]
        if live:
            out[name] = sum(ledger["function_calls"].get(f"{file_key}:{f}", 0)
                            for f in live)
        else:
            out[name] = None
            notes[name] = f"{file_key}.py defines none of {', '.join(funcs)}"

    wire = ledger["wire_counts"]
    for name in ("network.send_calls", "network.send_batch_calls",
                 "network.send_batch_msgs"):
        out[name] = wire.get(name)
        if out[name] is None:
            notes[name] = "wrapped name is gone"
    attempted = wire.get("batch_attempted")
    if attempted is None:
        out["network.batch_eligible_ratio"] = None
        notes["network.batch_eligible_ratio"] = "batch_eligible is gone"
    else:
        # no batch attempted: nothing fell back, so nothing to report
        out["network.batch_eligible_ratio"] = (
            wire["batch_eligible"] / attempted if attempted else 0.0)
    return out, notes
