"""Entry point for the miniAMR benchmark."""

from __future__ import annotations

from typing import Optional

from repro.apps.miniamr.mesh import AMRParams, MeshSchedule, build_mesh_schedule
from repro.apps.miniamr.variants import (
    AMRJobState,
    mpi_only_main,
    tagaspi_main,
    tampi_main,
)
from repro.harness.metrics import VariantResult
from repro.harness.runner import JobSpec, build_job

_MAINS = {"mpi": mpi_only_main, "tampi": tampi_main, "tagaspi": tagaspi_main}


def run_miniamr(spec: JobSpec, params: AMRParams,
                schedule: Optional[MeshSchedule] = None,
                collect_values: bool = False, tracer=None) -> VariantResult:
    """Run miniAMR for one configuration.

    The mesh schedule is deterministic in (params, n_ranks); pass a
    prebuilt one to share it across variants of the same rank count.
    Returns throughput (GUpdates/s) plus the NR (negligible-refinement)
    throughput the paper reports alongside it (Fig. 11/12). ``tracer`` (a
    :class:`repro.trace.Tracer`) records the run's timeline.
    """
    job = build_job(spec, tracer=tracer)
    if schedule is None:
        schedule = build_mesh_schedule(params, job.spec.n_ranks)
    state = AMRJobState(job, params, schedule)
    main = _MAINS[spec.variant]
    procs = [main(state, r) for r in range(job.spec.n_ranks)]
    sim_time = job.run(procs)

    refine_time = sum(t1 - t0 for (t0, t1) in state.refine_windows)
    work = state.total_work()
    nr_time = max(sim_time - refine_time, 1e-12)
    extra = dict(job.metrics)
    extra["refine_time"] = refine_time
    extra["blocks"] = float(schedule.meshes[0].n_blocks)
    result = VariantResult(
        variant=spec.variant,
        n_nodes=spec.n_nodes,
        throughput=work / sim_time / 1e9,
        throughput_nr=work / nr_time / 1e9,
        sim_time=sim_time,
        extra=extra,
    )
    result.extra.update(job.perf_metrics())
    if collect_values:
        result.extra["values"] = state.final_values()
    return result
