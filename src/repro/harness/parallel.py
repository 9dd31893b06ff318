"""Parallel sweep execution.

The paper's evaluation (Figs. 9-13) is a grid of *independent* experimental
points — variant × nodes × block size × fault plan — and every point is a
pure function of its :class:`~repro.harness.runner.JobSpec` + app params
(the determinism contract of docs/faults.md). :class:`SweepExecutor` runs
such points one after another, or shards them across a process pool.
Results come back in point order, so the output is byte-identical to the
serial path no matter how the pool interleaves — asserted by
tests/test_parallel_sweep.py.

A failing point raises its original exception out of
:meth:`SweepExecutor.map`; with several failures, the first one in point
order wins, at any worker count.

The process pool is imported on the first parallel ``map``, so importing
the harness (every job does) does not load ``multiprocessing``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.harness.metrics import VariantResult


@dataclass(frozen=True)
class SweepPoint:
    """One independent experimental point of a sweep.

    ``run_fn(spec, params, **run_kwargs)`` must be a *top-level* function
    (picklable by reference — every app runner is) returning a
    :class:`VariantResult`. ``label`` is a human-readable tuple naming the
    point, e.g. ``("tagaspi", 16)``.
    """

    run_fn: Callable
    spec: Any
    params: Any
    run_kwargs: Dict[str, Any] = field(default_factory=dict)
    label: Tuple = ()

    def run(self) -> VariantResult:
        return self.run_fn(self.spec, self.params, **self.run_kwargs)


class SweepExecutor:
    """Runs independent sweep points, optionally across worker processes.

    ``workers=1`` (default) executes inline — the serial reference path.
    ``workers=N > 1`` shards the points across a ``ProcessPoolExecutor``
    (fork where the platform has it, else spawn); results are merged in
    point order, so the output is byte-identical to ``workers=1``.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def map(self, points: Sequence[SweepPoint]) -> List[Any]:
        """Run every point; returns results in point order."""
        points = list(points)
        if self.workers == 1 or len(points) < 2:
            return [pt.run() for pt in points]
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork is both faster (no re-import) and more permissive (test-module
        # functions pickle by reference); spawn where fork does not exist
        # (Windows, some macOS configurations)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        n = min(self.workers, len(points))
        with ProcessPoolExecutor(n, ctx) as pool:
            return list(pool.map(SweepPoint.run, points))
