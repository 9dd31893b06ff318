"""Variant × named-axis sweeps.

:func:`run_variants` is the harness's sweep driver: it runs one application
runner across the paper's variants and across any *registered named axes*
— ordered grids of :class:`~repro.harness.runner.JobSpec` field values.
Two axes ship registered:

* ``faults=``  — named :class:`~repro.faults.FaultPlan` scenarios (the
  none/mild/severe intensity sweep of ``docs/faults.md``);
* ``backend=`` — collective-communication substrates of
  :mod:`repro.collectives` (``docs/collectives.md``).

An axis needs exactly **one** registration point (:func:`register_axis`):
``run_variants`` then accepts its keyword in grid form (a mapping or
sequence → one sweep point per value) or scalar form (a single value →
passed straight through to every point's ``JobSpec``), and cache keys pick
the new spec field up automatically through
:func:`repro.harness.parallel.canonicalize`. Each point is an independent
:class:`JobSpec`, so results are exactly what the single-point benches
would produce — and independence is what lets the sweep shard across
processes (``workers=``) and memoize per point (``cache=``) through
:mod:`repro.harness.parallel` without changing a single result
(docs/harness.md).

Result keys stay backward compatible: with one active axis (or none —
the implicit fault-free ``"none"`` point) the inner key is that axis's
plain string label; with several, it is a tuple of labels in axis
registration order (``faults`` first, then ``backend``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

from repro.faults import FaultPlan
from repro.harness.machines import Machine
from repro.harness.metrics import VariantResult
from repro.harness.parallel import ResultCache, SweepExecutor, SweepPoint
from repro.harness.report import format_table
from repro.harness.runner import VARIANTS, JobSpec


@dataclass(frozen=True)
class SweepAxis:
    """One named sweep axis over a :class:`JobSpec` field.

    ``is_grid(value)`` decides whether a keyword value means "sweep these"
    (a grid) or "set this on every point" (a scalar); ``normalize(value)``
    turns a grid value into an ordered ``{label: spec_value}`` mapping.
    """

    name: str
    spec_field: str
    is_grid: Callable[[object], bool]
    normalize: Callable[[object], Mapping[str, object]]


#: registration-ordered axis registry (insertion order = label order)
_AXES: Dict[str, SweepAxis] = {}


def register_axis(axis: SweepAxis) -> SweepAxis:
    """Register a named axis; this is the *single* place a new JobSpec
    sweep dimension has to be declared for :func:`run_variants`, caching,
    and :func:`fault_sweep_table` labeling to support it."""
    if axis.name in _AXES:
        raise ValueError(f"sweep axis {axis.name!r} already registered")
    _AXES[axis.name] = axis
    return axis


FAULTS_AXIS = register_axis(SweepAxis(
    name="faults",
    spec_field="faults",
    is_grid=lambda v: isinstance(v, Mapping),
    normalize=dict,
))

BACKEND_AXIS = register_axis(SweepAxis(
    name="backend",
    spec_field="backend",
    is_grid=lambda v: isinstance(v, (list, tuple)),
    normalize=lambda v: {str(b): b for b in v},
))


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
    cache: Union[ResultCache, str, None] = None,
    on_error: str = "raise",
    executor: Optional[SweepExecutor] = None,
    **spec_kwargs,
) -> Dict[str, Dict[object, VariantResult]]:
    """Run ``run_fn(spec, params)`` for every (variant, axis-grid) point.

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
        Checked runs are bit-identical to unchecked ones, so cached
        results remain valid per (spec, params) key.
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
    cache:
        A :class:`~repro.harness.parallel.ResultCache` (or a directory path
        for one): previously-computed points are returned without
        executing; see docs/harness.md for the invalidation model.
    on_error:
        ``"raise"`` (default) re-raises the first point failure after the
        whole grid finishes; ``"capture"`` stores the
        :class:`~repro.harness.parallel.SweepPointError` in the failing
        point's slot and keeps going.
    executor:
        Pre-configured :class:`SweepExecutor`; overrides ``workers`` /
        ``cache`` / ``on_error``.
    spec_kwargs:
        Registered axis keywords (``backend=`` — grid or scalar) and any
        extra :class:`JobSpec` fields (``poll_period_us``, ``n_queues``…).

    Returns ``{variant: {key: VariantResult}}`` where ``key`` is the axis
    label (string) for zero or one active grid axes and a tuple of labels
    in registration order otherwise; each result's ``extra`` carries the
    ``fault_injected`` / ``fault_retransmits`` / ``fault_timeouts``
    counters (zero for fault-free points).
    """
    spec_kwargs = dict(spec_kwargs)
    spec_kwargs["faults"] = faults
    # split registered-axis keywords into grids and scalar spec fields
    grids = []  # [(axis, [(label, value), ...])] in registration order
    scalars: Dict[str, object] = {}
    for axis in _AXES.values():
        if axis.name not in spec_kwargs:
            continue
        value = spec_kwargs.pop(axis.name)
        if axis.is_grid(value):
            grids.append((axis, list(axis.normalize(value).items())))
        elif value is not None or axis is FAULTS_AXIS:
            scalars[axis.spec_field] = value
    single_axis = len(grids) <= 1
    if not grids:
        grids = [(FAULTS_AXIS, [("none", scalars.pop("faults", None))])]

    points = []
    index = []
    for variant in variants:
        p = params(variant) if callable(params) else params
        for combo in product(*(cells for _, cells in grids)):
            fields = dict(scalars)
            for (axis, _), (label, value) in zip(grids, combo):
                fields[axis.spec_field] = value
            key = combo[0][0] if single_axis else tuple(c[0] for c in combo)
            spec = JobSpec(machine=machine, n_nodes=n_nodes, variant=variant,
                           seed=seed, check=check, perf=perf,
                           **fields, **spec_kwargs)
            points.append(SweepPoint(run_fn, spec, p, label=(variant, key)))
            index.append((variant, key))
    if executor is None:
        executor = SweepExecutor(workers=workers, cache=cache,
                                 on_error=on_error)
    flat = executor.map(points)
    out: Dict[str, Dict[object, VariantResult]] = {v: {} for v in variants}
    for (variant, key), res in zip(index, flat):
        out[variant][key] = res
    return out


def _key_str(key) -> str:
    return "/".join(map(str, key)) if isinstance(key, tuple) else str(key)


def fault_sweep_table(title: str,
                      results: Dict[str, Dict[object, VariantResult]]) -> str:
    """Render a :func:`run_variants` sweep as a text table with the
    per-point injected/retransmitted/timed-out counters. Multi-axis keys
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
