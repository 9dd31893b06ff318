"""The collective backends' crossover, on simulated time (docs/collectives.md).

Part 1 runs a 65 536-element allreduce (two reps) per backend at 4, 8, 16
and 32 ranks (4 cores per node). The GASPI notification ring must beat
the two-sided recursive-doubling tree at the largest scale: the bandwidth
argument ``repro.collectives`` exists to show. Part 2 sweeps the CG
mini-app (cost-model mode) over the harness ``backend=`` axis at the same
rank counts.

Every number is simulated, so it is host-independent and pinned exactly:
a change that moves one is a model change and must say so.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import emit
from repro.apps.cg import CGParams, run_cg
from repro.collectives import make_collectives
from repro.harness import JobSpec, MARENOSTRUM4, build_job, run_variants

BACKENDS = ("twosided", "rma", "gaspi")
CORES = 4
NODE_COUNTS = (1, 2, 4, 8)
ELEMS = 65536
REPS = 2
MACHINE = MARENOSTRUM4.with_cores(CORES)

#: simulated seconds per allreduce, backend -> ranks -> s
ALLREDUCE_SIM_S = {
    "twosided": {4: 0.00017167035077412927, 8: 0.0004042721373937621,
                 16: 0.0006352053885558538, 32: 0.000866489010583408},
    "rma": {4: 0.00010334047190348306, 8: 0.0008110609956322017,
            16: 0.0025535876120372117, 32: 0.006242227697906055},
    "gaspi": {4: 0.0001368, 8: 0.00019012500000000122,
              16: 0.0002370750000000022, 32: 0.00033712500000000436},
}
#: two-sided over GASPI allreduce time at 32 ranks
SPEEDUP = 2.5702306580152667
#: CG ``VariantResult.throughput``, backend -> ranks -> GDoF-iters/s
CG_THROUGHPUT = {
    "twosided": {4: 0.0008384449635980793, 8: 0.001604330135288314,
                 16: 0.002977644470703273, 32: 0.004943436758644185},
    "rma": {4: 0.0008315044007243943, 8: 0.001526968900017471,
            16: 0.0023729383366224866, 32: 0.0021298498058453267},
    "gaspi": {4: 0.0008370761083361209, 8: 0.0015653753396820873,
              16: 0.002712456911855706, 32: 0.003694941274047265},
}


def _allreduce_sim_s(backend: str, n_nodes: int) -> float:
    spec = JobSpec(machine=MACHINE, n_nodes=n_nodes, variant="mpi",
                   backend=backend)
    job = build_job(spec)
    colls = make_collectives(job, max_reduce_elems=ELEMS)
    data = np.ones(ELEMS)

    def main(r):
        def body(drv):
            for _ in range(REPS):
                yield from colls[r].allreduce(data)
        return body

    procs = [job.drivers[r].spawn(main(r)) for r in range(spec.n_ranks)]
    return job.run(procs) / REPS


def _table(title, series) -> str:
    ranks = [CORES * nn for nn in NODE_COUNTS]
    rows = [f"{title:>10s} " + " ".join(f"{r:>12d}" for r in ranks)]
    rows += [f"{b:>10s} " + " ".join(f"{series[b][r]:12.6g}" for r in ranks)
             for b in BACKENDS]
    return "\n".join(rows)


def test_gaspi_ring_beats_twosided_tree_at_scale():
    t0 = time.perf_counter()
    got = {b: {CORES * nn: _allreduce_sim_s(b, nn) for nn in NODE_COUNTS}
           for b in BACKENDS}
    wall = time.perf_counter() - t0
    largest = CORES * NODE_COUNTS[-1]
    speedup = got["twosided"][largest] / got["gaspi"][largest]
    emit(_table("allreduce", got)
         + f"\nspeedup (twosided / gaspi, {largest} ranks) {speedup:.3f}"
         f"  [{wall:.1f} s wall]")
    assert got == ALLREDUCE_SIM_S
    assert speedup == SPEEDUP
    assert speedup > 1.0


def test_cg_over_the_backend_axis():
    t0 = time.perf_counter()
    got = {b: {} for b in BACKENDS}
    for nn in NODE_COUNTS:
        res = run_variants(run_cg, MACHINE, nn,
                           CGParams(n=4096, iterations=8, compute_data=False),
                           variants=("mpi",), backend=list(BACKENDS))
        for b in BACKENDS:
            got[b][CORES * nn] = res["mpi"][b].throughput
    emit(_table("cg", got) + f"  [{time.perf_counter() - t0:.1f} s wall]")
    assert got == CG_THROUGHPUT
