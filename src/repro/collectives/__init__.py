"""Collective operations over the simulated runtimes, three ways.

The paper's stack had only point-to-point and RMA traffic; this package
adds allreduce / broadcast / barrier / allgather implemented on each
communication substrate so they can be compared head-to-head
(``benchmarks/explain/test_collectives.py``, docs/collectives.md):

* ``twosided`` — classical two-sided MPI trees and rings
  (:mod:`repro.collectives.twosided`);
* ``rma``      — MPI RMA fence+Get epochs in the COSMA
  ``one_sided_communicator`` style (:mod:`repro.collectives.rma`);
* ``gaspi``    — GASPI segment + notification pipelines, including the
  eventually consistent allreduce (:mod:`repro.collectives.gaspi`).

The backend is selected by the harness axis ``JobSpec.backend`` (swept
with ``run_variants(..., backend=[...])``); :func:`make_collectives`
builds the per-rank handles for a :class:`~repro.harness.runner.Job`.
"""

from typing import List, Optional

from repro.collectives.base import (
    BACKENDS,
    DEFAULT_BACKEND,
    CollectiveError,
    Collectives,
)
from repro.collectives.gaspi import SEG_COLL, GaspiCollectives
from repro.collectives.rma import RmaCollectives
from repro.collectives.twosided import TwoSidedCollectives


def make_collectives(job, backend: Optional[str] = None, *,
                     max_reduce_elems: int = 64,
                     max_gather_elems: int = 64,
                     max_bcast_elems: int = 64,
                     ec_rounds: int = 64,
                     ec_elems: int = 4,
                     queue: int = 0) -> List[Collectives]:
    """Build one collective handle per rank of ``job``.

    ``backend`` defaults to ``job.spec.backend`` (or ``twosided`` when the
    spec leaves it unset). The caps size the communication substrate —
    RMA window buffers and GASPI segment regions are allocated up front,
    like real windows/segments are registered once — so calls larger than
    the declared cap raise :class:`CollectiveError`.
    """
    backend = backend or getattr(job.spec, "backend", None) or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise CollectiveError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "twosided":
        if job.mpi is None:
            raise CollectiveError("twosided collectives need an MPI context")
        return [TwoSidedCollectives(job.mpi.rank(r))
                for r in range(job.spec.n_ranks)]
    if backend == "rma":
        if job.mpi is None:
            raise CollectiveError("rma collectives need an MPI context")
        max_elems = max(max_reduce_elems, max_gather_elems, max_bcast_elems)
        return RmaCollectives.build(job.mpi, max_elems)
    if job.gaspi is None:
        raise CollectiveError(
            "gaspi collectives need a GASPI context — set "
            "JobSpec(backend='gaspi') or use the tagaspi variant")
    return GaspiCollectives.build(
        job.gaspi, max_reduce_elems=max_reduce_elems,
        max_gather_elems=max_gather_elems, max_bcast_elems=max_bcast_elems,
        ec_rounds=ec_rounds, ec_elems=ec_elems, queue=queue)


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "CollectiveError",
    "Collectives",
    "GaspiCollectives",
    "RmaCollectives",
    "SEG_COLL",
    "TwoSidedCollectives",
    "make_collectives",
]
