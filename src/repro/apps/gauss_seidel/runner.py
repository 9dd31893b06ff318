"""Entry point: run one Gauss–Seidel experimental point."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.apps.gauss_seidel.common import GSParams
from repro.apps.gauss_seidel.storage import RankStorage
from repro.apps.gauss_seidel.variants import (
    make_storages,
    mpi_only_main,
    tagaspi_main,
    tampi_main,
)
from repro.harness.metrics import VariantResult
from repro.harness.runner import JobSpec, build_job

_MAINS = {
    "mpi": mpi_only_main,
    "tampi": tampi_main,
    "tagaspi": tagaspi_main,
}


def run_gauss_seidel(spec: JobSpec, params: GSParams,
                     collect_grid: bool = False, tracer=None):
    """Run the Gauss–Seidel benchmark for ``spec.variant``.

    Returns a :class:`VariantResult` whose ``extra`` carries the job's full
    per-layer metrics sweep. With ``collect_grid=True`` (data mode only)
    ``extra['grid']`` holds the assembled global grid for comparison
    against :func:`gs_reference`. ``tracer`` (a :class:`repro.trace.Tracer`)
    records the run's timeline.
    """
    from repro.sim.shard import resolve_shards

    n_shards = resolve_shards(spec, tracer=tracer, collect_grid=collect_grid)
    if n_shards:
        return _run_sharded(spec, params, n_shards)

    job = build_job(spec, tracer=tracer)
    storages = make_storages(job, params)
    main = _MAINS[spec.variant]
    procs = [main(job, params, st) for st in storages]
    sim_time = job.run(procs)

    result = VariantResult(
        variant=spec.variant,
        n_nodes=spec.n_nodes,
        throughput=params.gupdates(sim_time),
        sim_time=sim_time,
        extra=dict(job.metrics),
    )
    result.extra.update(job.perf_metrics())
    if collect_grid:
        if not params.compute_data:
            raise ValueError("collect_grid requires compute_data=True")
        result.extra["grid"] = _assemble(storages, params)
    return result


def _run_sharded(spec: JobSpec, params: GSParams,
                 n_shards: int, observer=None) -> "VariantResult":
    """Sharded-engine path (repro.sim.shard): bit-identical to the serial
    path above by the conservative-window determinism contract."""
    from repro.apps.gauss_seidel.common import initial_grid, partition_rows
    from repro.sim.shard import run_sharded_job

    main = _MAINS[spec.variant]

    def make_procs(job, local_ranks):
        grid = initial_grid(params) if params.compute_data else None
        ranges = partition_rows(params.rows, job.spec.n_ranks)
        return [
            main(job, params,
                 RankStorage(params, r, job.spec.n_ranks, ranges[r], grid))
            for r in local_ranks
        ]

    sim_time, metrics = run_sharded_job(spec, make_procs, n_shards,
                                        observer=observer)
    return VariantResult(
        variant=spec.variant,
        n_nodes=spec.n_nodes,
        throughput=params.gupdates(sim_time),
        sim_time=sim_time,
        extra=metrics,
    )


def run_gauss_seidel_steady(spec: JobSpec, params: GSParams,
                            warm_steps: int) -> VariantResult:
    """Steady-state throughput: run ``warm_steps`` and the full
    ``params.timesteps`` separately and difference the times, excluding the
    wavefront pipeline-fill transient (the paper's long runs — 500–1000
    timesteps — amortize it; our scaled runs cannot, so we measure the
    steady regime directly)."""
    if not 0 < warm_steps < params.timesteps:
        raise ValueError("need 0 < warm_steps < timesteps")
    import dataclasses

    warm = dataclasses.replace(params, timesteps=warm_steps)
    res_warm = run_gauss_seidel(spec, warm)
    res_full = run_gauss_seidel(spec, params)
    dt = res_full.sim_time - res_warm.sim_time
    steps = params.timesteps - warm_steps
    updates = float(params.rows) * params.cols * steps
    out = VariantResult(
        variant=spec.variant,
        n_nodes=spec.n_nodes,
        throughput=updates / dt / 1e9,
        sim_time=dt,
        extra=dict(res_full.extra),
    )
    return out


def _assemble(storages: List[RankStorage], params: GSParams) -> np.ndarray:
    grid = np.empty((params.rows, params.cols))
    for st in storages:
        grid[st.r0 : st.r1] = st.local
    return grid
