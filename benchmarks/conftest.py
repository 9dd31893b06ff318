"""Shared helpers for the benchmark suite.

Each ``test_fig*`` benchmark regenerates one table/figure of the paper's
evaluation (see DESIGN.md §3) at the downscaled machine sizes documented in
EXPERIMENTS.md, prints the series, asserts the paper's qualitative claims
(who wins, where), and records its variant timings to a machine-readable
``<name>.json`` artifact (:func:`record_bench`). Run with::

    pytest benchmarks/ --benchmark-only

Artifacts land in ``benchmarks/out/`` unless ``REPRO_BENCH_DIR`` is set.

The figure sweeps run through :class:`repro.harness.parallel.SweepExecutor`
(:func:`sweep_executor` below), so they shard across processes without
changing any result: ``REPRO_SWEEP_WORKERS=N`` sets the process-pool size
(default 1, serial).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

import pytest

from repro.harness.parallel import SweepExecutor

#: default artifact directory of :func:`record_bench` (git-ignored)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: wall seconds of the most recent run_once() sweep (consumed by
#: record_bench so artifacts carry the measured time without every
#: benchmark re-plumbing it)
_last_wall_s = None


def pytest_collection_modifyitems(items):
    """``benchmarks/e2e`` may not change in the PR that moved its pinned
    number (benchmarks/test_e2e_quick.py has the story and the full
    assertion set); strict, so re-pinning the original turns this red."""
    for item in items:
        if item.nodeid.endswith("test_e2e_smoke.py::test_quick_runs_all_passes"):
            item.add_marker(pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="pins the per-event Job.run driver: step_calls == "
                       "events_fired; see benchmarks/test_e2e_quick.py"))


def emit(text: str) -> None:
    """Print a reproduced table so it lands in the pytest output."""
    sys.stdout.write("\n" + text + "\n")
    sys.stdout.flush()


def run_once(benchmark, fn):
    """Run the sweep exactly once under pytest-benchmark's timer."""
    global _last_wall_s

    def timed():
        global _last_wall_s
        t0 = time.perf_counter()
        out = fn()
        _last_wall_s = time.perf_counter() - t0
        return out

    return benchmark.pedantic(timed, rounds=1, iterations=1, warmup_rounds=0)


def sweep_executor() -> SweepExecutor:
    """A :class:`SweepExecutor` configured from the environment (see module
    docstring)."""
    return SweepExecutor(workers=int(os.environ.get("REPRO_SWEEP_WORKERS", "1")))


def sweep_kwargs() -> dict:
    """The same environment configuration as :func:`sweep_executor`, shaped
    for :func:`repro.harness.run_variants`'s ``workers=``."""
    return {"workers": sweep_executor().workers}


def _jsonable(value):
    """Coerce dataclasses (e.g. :class:`~repro.harness.metrics.VariantResult`),
    numpy scalars/arrays and non-str keys recursively; anything else that
    JSON cannot hold becomes its ``repr``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    tolist = getattr(value, "tolist", None)  # numpy scalars and arrays
    if callable(tolist):
        return _jsonable(tolist())
    return repr(value)


def record_bench(name: str, results, **extra) -> str:
    """Write this benchmark's results (any mix of dicts/lists/
    VariantResult) to ``<name>.json`` under ``REPRO_BENCH_DIR`` (default
    :data:`OUT_DIR`), with sorted keys so artifacts diff cleanly, and
    announce the path."""
    payload = {"name": name, "wall_s": _last_wall_s, "results": results}
    payload.update(extra)
    outdir = os.environ.get("REPRO_BENCH_DIR", OUT_DIR)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit(f"recorded -> {path}")
    return path
