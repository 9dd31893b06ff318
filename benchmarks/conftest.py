"""Shared helpers for the benchmark suite.

Each ``test_fig*`` benchmark regenerates one table/figure of the paper's
evaluation (see DESIGN.md §3) at the downscaled machine sizes documented in
EXPERIMENTS.md, prints the series, asserts the paper's qualitative claims
(who wins, where), and records its variant timings to a machine-readable
``BENCH_<name>.json`` artifact (``repro.bench`` writer). Run with::

    pytest benchmarks/ --benchmark-only

Artifacts land in the current directory unless ``REPRO_BENCH_DIR`` is set.

The figure sweeps run through :class:`repro.harness.parallel.SweepExecutor`
(:func:`sweep_executor` below), so they shard across processes and memoize
per point without changing any result:

* ``REPRO_SWEEP_WORKERS=N`` — process-pool size (default 1, serial);
* ``REPRO_CACHE_DIR=path``  — persistent result cache; re-running a figure
  benchmark after an unrelated edit then executes nothing.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from repro.bench import write_bench_json
from repro.harness.parallel import ResultCache, SweepExecutor

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


def sweep_executor(**overrides) -> SweepExecutor:
    """A :class:`SweepExecutor` configured from the environment (see module
    docstring); keyword overrides win."""
    kwargs: dict = {"workers": int(os.environ.get("REPRO_SWEEP_WORKERS", "1"))}
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if cache_dir:
        kwargs["cache"] = ResultCache(cache_dir)
    kwargs.update(overrides)
    return SweepExecutor(**kwargs)


def sweep_kwargs() -> dict:
    """The same environment configuration as :func:`sweep_executor`, shaped
    for :func:`repro.harness.run_variants`'s ``workers=``/``cache=``."""
    ex = sweep_executor()
    return {"workers": ex.workers, "cache": ex.cache}


def record_bench(name: str, results, **extra) -> str:
    """Write this benchmark's results (any mix of dicts/lists/
    VariantResult) to ``BENCH_<name>.json`` and announce the path."""
    payload = {"name": name, "wall_s": _last_wall_s, "results": results}
    payload.update(extra)
    path = write_bench_json(name, payload,
                            os.environ.get("REPRO_BENCH_DIR", "."))
    emit(f"recorded -> {path}")
    return path
