"""Variant × fault-plan × backend sweeps.

:func:`run_variants` is the harness's sweep driver: it runs one application
runner across the paper's variants and across up to two grids of
:class:`~repro.harness.runner.JobSpec` field values:

* ``faults=``  — named :class:`~repro.faults.FaultPlan` scenarios (the
  none/mild/severe intensity sweep of ``docs/faults.md``); a mapping is a
  grid, a single plan (or ``None``) is set on every point;
* ``backend=`` — collective-communication substrates of
  :mod:`repro.collectives` (``docs/collectives.md``); a list or tuple is a
  grid, a single name is set on every point.

Each point is an independent :class:`JobSpec`, so results are exactly what
the single-point benches would produce — and independence is what lets the
sweep shard across processes (``workers=``) through
:mod:`repro.harness.parallel` without changing a single result
(docs/harness.md).

Result keys: with one active grid (or none — the implicit fault-free
``"none"`` point) the inner key is that grid's plain string label; with
both, it is a ``(faults, backend)`` tuple of labels.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

from repro.faults import FaultPlan
from repro.harness.machines import Machine
from repro.harness.metrics import VariantResult
from repro.harness.parallel import SweepExecutor, SweepPoint
from repro.harness.report import format_table
from repro.harness.runner import VARIANTS, JobSpec


def run_variants(
    run_fn: Callable[[JobSpec, object], VariantResult],
    machine: Machine,
    n_nodes: int,
    params,
    variants: Sequence[str] = VARIANTS,
    faults: Union[Mapping[str, Optional[FaultPlan]], FaultPlan, None] = None,
    check: Optional[str] = None,
    perf: bool = False,
    seed: Optional[int] = 1,
    workers: int = 1,
    **spec_kwargs,
) -> Dict[str, Dict[object, VariantResult]]:
    """Run ``run_fn(spec, params)`` for every (variant, grid cell) point.

    Parameters
    ----------
    run_fn:
        An application runner, e.g. :func:`repro.apps.gauss_seidel.runner.
        run_gauss_seidel`. Must be a top-level function (picklable) when
        ``workers > 1``.
    params:
        The app's parameter object, or a callable ``variant -> params``
        when variants need different tuning (block sizes etc.).
    faults:
        Ordered mapping of label -> :class:`FaultPlan` (or ``None`` for the
        fault-free point) to sweep, or a single plan applied to every
        point. Omitted ⇒ a single ``"none"`` point per variant.
    check:
        Correctness-analysis mode for every point (the
        :attr:`JobSpec.check` axis): ``None`` (off, default), ``"report"``,
        or ``"strict"`` — strict points raise
        :class:`repro.analysis.AnalysisError` on any error finding.
        Checked runs are bit-identical to unchecked ones.
    perf:
        When True every point runs with performance diagnosis (the
        :attr:`JobSpec.perf` axis): the run is observed online and the
        ``perf_*`` efficiency / critical-path / wait-state metrics of
        :mod:`repro.perf` land in each result's ``extra``. Observing is
        passive, so sim times are bit-identical to ``perf=False`` runs.
    workers:
        Shard the grid's points across this many processes (``1`` =
        serial). Results are merged in deterministic (variant, labels)
        order, so the returned mapping is identical for any worker count.
        A failing point raises its original exception; with several, the
        first in that order.
    spec_kwargs:
        ``backend=`` (a list or tuple is a grid, a single name is set on
        every point) and any extra :class:`JobSpec` fields
        (``poll_period_us``, ``n_queues``…).

    Returns ``{variant: {key: VariantResult}}`` where ``key`` is the grid
    label (string) for zero or one active grids and a ``(faults,
    backend)`` tuple of labels otherwise; each result's ``extra`` carries the
    ``fault_injected`` / ``fault_retransmits`` / ``fault_timeouts``
    counters (zero for fault-free points).
    """
    spec_kwargs = dict(spec_kwargs)
    backend = spec_kwargs.pop("backend", None)
    # split the two sweepable fields into grids and per-point scalars
    grids = []  # [(spec field, [(label, value), ...])], faults first
    if isinstance(faults, Mapping):
        grids.append(("faults", list(faults.items())))
    else:
        spec_kwargs["faults"] = faults
    if isinstance(backend, (list, tuple)):
        grids.append(("backend", list({str(b): b for b in backend}.items())))
    elif backend is not None:
        spec_kwargs["backend"] = backend
    single_grid = len(grids) <= 1
    if not grids:
        grids = [("faults", [("none", spec_kwargs.pop("faults"))])]

    points = []
    for variant in variants:
        p = params(variant) if callable(params) else params
        for combo in product(*(cells for _, cells in grids)):
            fields = {name: value
                      for (name, _), (_, value) in zip(grids, combo)}
            key = combo[0][0] if single_grid else tuple(c[0] for c in combo)
            spec = JobSpec(machine=machine, n_nodes=n_nodes, variant=variant,
                           seed=seed, check=check, perf=perf,
                           **fields, **spec_kwargs)
            points.append(SweepPoint(run_fn, spec, p, label=(variant, key)))
    out: Dict[str, Dict[object, VariantResult]] = {v: {} for v in variants}
    for pt, res in zip(points, SweepExecutor(workers=workers).map(points)):
        variant, key = pt.label
        out[variant][key] = res
    return out


def _key_str(key) -> str:
    return "/".join(map(str, key)) if isinstance(key, tuple) else str(key)


def fault_sweep_table(title: str,
                      results: Dict[str, Dict[object, VariantResult]]) -> str:
    """Render a :func:`run_variants` sweep as a text table with the
    per-point injected/retransmitted/timed-out counters. Two-grid keys
    are joined with ``/`` in the label column."""
    rows = []
    for variant, by_label in results.items():
        for label, res in by_label.items():
            rows.append([
                variant,
                _key_str(label),
                res.throughput,
                res.sim_time,
                res.extra.get("fault_injected", 0.0),
                res.extra.get("fault_retransmits", 0.0),
                res.extra.get("fault_timeouts", 0.0),
            ])
    return format_table(
        title,
        ["variant", "faults", "throughput", "sim_time (s)", "injected",
         "retransmits", "timeouts"],
        rows,
    )
