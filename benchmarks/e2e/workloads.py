"""The six workloads: which jobs each one runs, and why.

Every workload is a list of ``(label, run_<app>, JobSpec, params)`` jobs
built only from public names (``JobSpec``, the machine presets, the four
app runners and their parameter classes). All are cost-model mode
(``compute_data=False``); the benchmark seed reaches the program only
through ``JobSpec.seed``.

``quick=True`` shrinks every input to a smoke-test size with the same job
list, so the three passes and the schema check run in seconds.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple

from repro.apps.cg import CGParams, run_cg
from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.apps.miniamr import AMRParams, run_miniamr
from repro.apps.streaming import StreamingParams, run_streaming
from repro.harness import CTE_AMD, MARENOSTRUM4, JobSpec
from repro.tasking import RuntimeConfig


class JobDef(NamedTuple):
    label: str
    runner: Callable
    spec: JobSpec
    params: object


def _gs_hybrid(seed: int, quick: bool, **observe) -> List[JobDef]:
    # Fig. 9/10 point: tasking scheduler + dependencies + TAMPI/TAGASPI
    # polling carry ~30 % of host time here and none in gs_mpi.
    params = (GSParams(rows=128, cols=512, timesteps=2, block_size=64,
                       compute_data=False) if quick else
              GSParams(rows=1024, cols=4096, timesteps=12, block_size=128,
                       compute_data=False))
    return [
        JobDef(v, run_gauss_seidel,
               JobSpec(machine=MARENOSTRUM4.with_cores(8),
                       n_nodes=2 if quick else 8, variant=v,
                       poll_period_us=50, seed=seed, **observe),
               params)
        for v in ("tampi", "tagaspi")
    ]


def _gs_hybrid_observed(seed: int, quick: bool) -> List[JobDef]:
    # gs_hybrid through the scalar wire path, the traced engine loop and
    # the analysis hooks: what observing a run costs shows only here.
    return _gs_hybrid(seed, quick, check="report", perf=True)


def _gs_mpi(seed: int, quick: bool) -> List[JobDef]:
    # MPI-only at the largest rank count and footprint: engine, Process
    # resume and mpi (comm/requests/matching) with no tasking at all.
    if quick:
        machine, n_nodes = MARENOSTRUM4.with_cores(4), 2
        params = GSParams(rows=64, cols=256, timesteps=2, block_size=64,
                          compute_data=False)
    else:
        machine, n_nodes = MARENOSTRUM4.with_cores(16), 16
        params = GSParams(rows=2048, cols=2048, timesteps=8, block_size=256,
                          compute_data=False)
    return [JobDef("mpi", run_gauss_seidel,
                   JobSpec(machine=machine, n_nodes=n_nodes, variant="mpi",
                           seed=seed),
                   params)]


def _streaming_fine(seed: int, quick: bool) -> List[JobDef]:
    # Fig. 13 smallest-block column: many small messages through
    # isend_batch -> Cluster.send_batch, plus MPI lock contention.
    machine = CTE_AMD.with_cores(4 if quick else 16)
    params = (StreamingParams(chunks=2, elements_per_chunk=8192,
                              block_size=512, compute_data=False) if quick else
              StreamingParams(chunks=6, elements_per_chunk=131072,
                              block_size=512, compute_data=False))
    jobs = []
    for v in ("mpi", "tampi", "tagaspi"):
        rc = None if v == "mpi" else RuntimeConfig(
            n_cores=machine.cores_per_node, create_overhead=0.5e-6,
            dispatch_overhead=0.2e-6)  # the fig13 configuration
        jobs.append(JobDef(
            v, run_streaming,
            JobSpec(machine=machine, n_nodes=2 if quick else 4, variant=v,
                    poll_period_us=15, runtime_config=rc, seed=seed),
            params))
    return jobs


def _miniamr(seed: int, quick: bool) -> List[JobDef]:
    # Fig. 11/12 point: irregular neighbours, refinement epochs, the
    # heaviest dependency tracking and app code, and the only real job
    # assembly (the mesh schedule), so setup_s moves here.
    machine = MARENOSTRUM4.with_cores(4 if quick else 8)
    params = (AMRParams(nx=2, ny=2, nz=2, max_level=1, timesteps=2,
                        refine_every=2, compute_data=False) if quick else
              AMRParams(timesteps=2, refine_every=1, compute_data=False))
    return [
        JobDef(v, run_miniamr,
               JobSpec(machine=machine, n_nodes=2 if quick else 4, variant=v,
                       seed=seed),
               params)
        for v in ("mpi", "tagaspi")
    ]


def _cg_backends(seed: int, quick: bool) -> List[JobDef]:
    # CG over the three collective substrates: mpi, network and gaspi
    # without tasking; the only user of collectives and mpi.rma.
    machine = MARENOSTRUM4.with_cores(4)
    params = (CGParams(n=256, iterations=2, compute_data=False) if quick else
              CGParams(n=4096, iterations=5, compute_data=False))
    return [
        JobDef(b, run_cg,
               JobSpec(machine=machine, n_nodes=2 if quick else 8,
                       variant="mpi", backend=b, seed=seed),
               params)
        for b in ("twosided", "rma", "gaspi")
    ]


WORKLOADS = {
    "gs_hybrid": _gs_hybrid,
    "gs_mpi": _gs_mpi,
    "streaming_fine": _streaming_fine,
    "miniamr": _miniamr,
    "cg_backends": _cg_backends,
    "gs_hybrid_observed": _gs_hybrid_observed,
}

#: the unobserved workload an observed one is compared against
#: (``observe.overhead_ratio``)
PLAIN_TWIN = {"gs_hybrid_observed": "gs_hybrid"}


def build(name: str, seed: int, quick: bool = False) -> List[JobDef]:
    return WORKLOADS[name](seed, quick)
