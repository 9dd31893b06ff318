"""Entry point for the Streaming benchmark."""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.apps.streaming.common import StreamingParams
from repro.apps.streaming.variants import make_ranks, mpi_only_main, tagaspi_main, tampi_main
from repro.harness.metrics import VariantResult
from repro.harness.runner import JobSpec, build_job

_MAINS = {"mpi": mpi_only_main, "tampi": tampi_main, "tagaspi": tagaspi_main}


def run_streaming(spec: JobSpec, params: StreamingParams,
                  collect_output: bool = False, tracer=None) -> VariantResult:
    """Run the Streaming benchmark; with ``collect_output`` (data mode) the
    result's ``extra['outputs']`` maps last-node rank -> final chunk data.
    ``tracer`` (a :class:`repro.trace.Tracer`) records the run's timeline."""
    if spec.n_nodes < 2:
        raise ValueError("the pipeline needs at least 2 nodes")
    job = build_job(spec, tracer=tracer)
    ranks = make_ranks(job, params)
    outputs: Dict = {}
    main = _MAINS[spec.variant]
    procs = [main(job, params, sr, outputs) for sr in ranks]
    sim_time = job.run(procs)
    result = VariantResult(
        variant=spec.variant,
        n_nodes=spec.n_nodes,
        throughput=params.gelements(sim_time),
        sim_time=sim_time,
        extra=dict(job.metrics),
    )
    result.extra.update(job.perf_metrics())
    if collect_output:
        if not params.compute_data:
            raise ValueError("collect_output requires compute_data=True")
        result.extra["outputs"] = {r: a.copy() for r, a in outputs.items()}
    return result


def run_streaming_steady(spec: JobSpec, params: StreamingParams,
                         warm_chunks: int) -> VariantResult:
    """Steady-state throughput excluding pipeline fill (chunk-count
    delta of two runs)."""
    if not 0 < warm_chunks < params.chunks:
        raise ValueError("need 0 < warm_chunks < chunks")
    warm = dataclasses.replace(params, chunks=warm_chunks)
    res_warm = run_streaming(spec, warm)
    res_full = run_streaming(spec, params)
    dt = res_full.sim_time - res_warm.sim_time
    elems = (params.chunks - warm_chunks) * params.elements_per_chunk
    return VariantResult(
        variant=spec.variant,
        n_nodes=spec.n_nodes,
        throughput=elems / dt / 1e9,
        sim_time=dt,
        extra=dict(res_full.extra),
    )
