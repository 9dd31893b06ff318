"""Entry point: run one CG experimental point.

CG is *rank-shaped* (one single-threaded process per core, like the
paper's pure-MPI baselines), so it runs under ``variant="mpi"`` only; the
interesting axis is :attr:`JobSpec.backend`, which swaps the collective
substrate underneath the unchanged solver loop::

    run_variants(run_cg, machine, nodes, params, variants=("mpi",),
                 backend=["twosided", "rma", "gaspi"])

With ``params.staleness > 0`` (gaspi backend only) the two dot-product
allreduces become eventually consistent: each rank reduces with whatever
contributions have arrived, missing at most ``staleness`` of them, and
per-rank scalars may transiently diverge. After the loop an
``ec_fence`` consumes every straggler and a final *exact* allreduce
computes the residual, restoring exactness — the pattern
docs/collectives.md describes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.apps.cg.common import CGParams, cg_matrix, cg_rhs
from repro.collectives import make_collectives
from repro.harness.metrics import VariantResult
from repro.harness.runner import Job, JobSpec, VariantError, build_job


class _RankState:
    """Per-rank slice of the solver state (x, r, p live block-distributed)."""

    def __init__(self, job: Job, params: CGParams, rank: int):
        n_ranks = job.spec.n_ranks
        self.rank = rank
        self.nloc = params.n // n_ranks
        self.r0 = rank * self.nloc
        self.r1 = self.r0 + self.nloc
        if params.compute_data:
            self.a_rows = cg_matrix(params.n)[self.r0:self.r1]
        else:
            self.a_rows = None
        self.x = np.zeros(self.nloc)
        self.residual = float("nan")


def _noise_fn(job: Job, rank: int):
    """Per-rank multiplicative compute-time noise (machine.compute_jitter).

    Seeded independently of the backend, so a backend sweep changes only
    communication behavior, never the compute timings."""
    sigma = job.spec.machine.compute_jitter
    if sigma <= 0.0 or job.spec.seed is None:
        return lambda cost: cost
    rng = job.app_rng("cg-noise", rank)
    return lambda cost: cost * rng.lognormal(0.0, sigma)


def _cg_main(job: Job, params: CGParams, coll, st: _RankState, drv):
    machine = job.spec.machine
    n, nloc, iters = params.n, st.nloc, params.iterations
    data = params.compute_data
    ec = params.staleness > 0
    noisy = _noise_fn(job, st.rank)
    spmv_cost = machine.kernel_time("cg_spmv", nloc * n)
    dot_cost = machine.kernel_time("cg_dot", nloc)
    axpy_cost = machine.kernel_time("cg_axpy", nloc)

    def on_rank(collective):
        # collectives run on the bare rank: sync() brings the engine to the
        # driver's clock on the way in and, on the way out, realises the
        # substrate's CPU charge as its own event (folded into the next
        # compute, that event can trade places with a neighbour's
        # same-instant notification poll — tests/test_lazy_clock.py)
        yield from drv.sync()
        out = yield from collective
        yield from drv.sync()
        return out

    def main(drv):
        # right-hand side: computed at root, broadcast to everyone
        b_full = cg_rhs(n) if (st.rank == 0 and data) else np.zeros(n)
        b_full = yield from on_rank(coll.bcast(b_full, root=0))
        r_ = b_full[st.r0:st.r1].copy()
        p_loc = r_.copy()
        rsold_arr = yield from on_rank(coll.allreduce([float(r_ @ r_)]))
        yield from drv.compute(noisy(dot_cost))
        rsold = float(rsold_arr[0])

        for _ in range(iters):
            # matvec needs the whole search direction: allgather p
            p_full = yield from on_rank(coll.allgather(p_loc))
            if data:
                ap = st.a_rows @ p_full
            else:
                ap = np.zeros(nloc)
            yield from drv.compute(noisy(spmv_cost))

            pap_loc = float(p_loc @ ap)
            yield from drv.compute(noisy(dot_cost))
            pap_arr = yield from on_rank(
                coll.ec_allreduce([pap_loc], staleness=params.staleness)
                if ec else coll.allreduce([pap_loc]))
            pap = float(pap_arr[0])

            # EC partial sums can make alpha ill-defined mid-run; the
            # guarded value keeps the iterate finite until the fence
            alpha = rsold / pap if pap != 0.0 else 0.0
            st.x += alpha * p_loc
            r_ -= alpha * ap
            yield from drv.compute(noisy(2 * axpy_cost))

            rsnew_loc = float(r_ @ r_)
            yield from drv.compute(noisy(dot_cost))
            rsnew_arr = yield from on_rank(
                coll.ec_allreduce([rsnew_loc], staleness=params.staleness)
                if ec else coll.allreduce([rsnew_loc]))
            rsnew = float(rsnew_arr[0])

            beta = rsnew / rsold if rsold != 0.0 else 0.0
            p_loc = r_ + beta * p_loc
            yield from drv.compute(noisy(axpy_cost))
            rsold = rsnew

        # exactness restored: consume stragglers, then one exact reduction
        # (one entry for the three: nothing realises a charge in between)
        yield from drv.sync()
        yield from coll.barrier()
        if ec:
            yield from coll.ec_fence()
        final_arr = yield from coll.allreduce([float(r_ @ r_)])
        yield from drv.sync()
        yield from drv.compute(noisy(dot_cost))
        st.residual = float(final_arr[0])

    return drv.spawn(main)


def run_cg(spec: JobSpec, params: CGParams,
           collect_solution: bool = False, tracer=None) -> VariantResult:
    """Run the CG benchmark under ``spec.backend``'s collectives.

    Returns a :class:`VariantResult` (throughput in GDoF-iterations/s)
    whose ``extra`` carries the job metrics plus ``residual`` (the exact
    final squared residual norm, identical across ranks) and — on the
    gaspi backend — ``ec_missing`` (total contributions the EC rounds
    proceeded without). ``collect_solution=True`` (data mode) adds
    ``extra['solution']``, the assembled global iterate.
    """
    if spec.variant != "mpi":
        raise VariantError(
            "the CG mini-app is rank-shaped; run it under variant='mpi' "
            "and sweep backend= instead")
    backend = spec.backend or "twosided"
    if params.staleness > 0 and backend != "gaspi":
        raise ValueError(
            "staleness > 0 needs the eventually consistent allreduce — "
            "set JobSpec(backend='gaspi')")
    if params.n % spec.n_ranks != 0:
        raise ValueError(
            f"n={params.n} must divide evenly over {spec.n_ranks} ranks")
    job = build_job(spec, tracer=tracer)
    nloc = params.n // spec.n_ranks
    colls = make_collectives(
        job,
        max_reduce_elems=8,
        max_gather_elems=nloc,
        max_bcast_elems=params.n,
        ec_rounds=2 * params.iterations + 4,
        ec_elems=2,
    )
    states = [_RankState(job, params, r) for r in range(spec.n_ranks)]
    procs = [
        _cg_main(job, params, colls[r], states[r], job.drivers[r])
        for r in range(spec.n_ranks)
    ]
    sim_time = job.run(procs)

    result = VariantResult(
        variant=spec.variant,
        n_nodes=spec.n_nodes,
        throughput=params.dof_iters(sim_time) / 1e9,
        sim_time=sim_time,
        extra=dict(job.metrics),
    )
    result.extra["residual"] = states[0].residual
    if backend == "gaspi":
        result.extra["ec_missing"] = float(
            sum(sum(c.ec_missing) for c in colls))
    result.extra.update(job.perf_metrics())
    if collect_solution:
        if not params.compute_data:
            raise ValueError("collect_solution requires compute_data=True")
        result.extra["solution"] = np.concatenate([st.x for st in states])
    return result
