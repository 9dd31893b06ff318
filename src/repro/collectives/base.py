"""Backend-agnostic collective interface.

Every backend exposes the same four generator-shaped operations —
``allreduce``, ``bcast``, ``barrier``, ``allgather`` — plus the GASPI
backend's eventually consistent pair ``ec_allreduce`` / ``ec_fence``.
One :class:`Collectives` handle exists per rank; handles for one job are
built together by :func:`repro.collectives.make_collectives` so the
backends can set up their shared substrate (an RMA window, GASPI
segments) collectively, the way ``MPI_Win_create`` / ``gaspi_segment_
create`` are collective in the real APIs.

Call contract (the MPI one): all ranks issue the same collective calls in
the same order with equal element counts. Payloads are float64; values
are coerced with :func:`coerce` and results come back as 1-D float64
arrays. All operations must be driven with ``yield from`` inside a
simulated process; CPU charged by the underlying comm layers accumulates
in the caller's context sink as usual (an MPI-only process brackets the
call with ``drv.sync()``, see :class:`repro.mpi.comm.MPIProcDriver`).
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

#: the harness ``backend=`` axis values (JobSpec.backend)
BACKENDS = ("twosided", "rma", "gaspi")
#: backend used when JobSpec.backend is None
DEFAULT_BACKEND = "twosided"


class CollectiveError(RuntimeError):
    """Misuse of the collectives API (bad backend, size over the declared
    cap, eventually-consistent call on a backend without one, ...)."""


def coerce(value) -> np.ndarray:
    """Normalize a collective payload to a contiguous 1-D float64 array."""
    return np.ascontiguousarray(np.atleast_1d(np.asarray(value, dtype=np.float64)))


class Collectives:
    """Per-rank collective handle; subclasses implement ``_allreduce`` /
    ``_bcast`` / ``_barrier`` / ``_allgather`` as generators.

    The public methods wrap the backend implementation with payload
    coercion and a ``coll`` tracer span per call, so ``perf=True`` runs
    attribute collective phases on the timeline (docs/perf.md).
    """

    backend: str = "?"

    def __init__(self, engine, rank: int, n_ranks: int):
        self.engine = engine
        self.rank = rank
        self.n = n_ranks

    # ------------------------------------------------------------------
    # public API (generator-shaped)
    # ------------------------------------------------------------------
    def allreduce(self, value, op=np.add) -> Generator:
        """Element-wise reduction of equal-size arrays; every rank yields
        the full result."""
        t0 = self.engine.now
        out = yield from self._allreduce(coerce(value), op)
        self._trace("allreduce", t0, out.size)
        return out

    def bcast(self, value, root: int = 0) -> Generator:
        """Broadcast ``value`` from ``root``; non-roots pass an equally
        sized array whose contents are ignored."""
        t0 = self.engine.now
        out = yield from self._bcast(coerce(value), root)
        self._trace("bcast", t0, out.size)
        return out

    def barrier(self) -> Generator:
        t0 = self.engine.now
        yield from self._barrier()
        self._trace("barrier", t0, 0)

    def allgather(self, value) -> Generator:
        """Concatenate every rank's equal-size contribution; yields the
        ``n_ranks * m`` result in rank order on every rank."""
        t0 = self.engine.now
        out = yield from self._allgather(coerce(value))
        self._trace("allgather", t0, out.size)
        return out

    # -- eventually consistent variant (GASPI backend only) --------------
    def ec_allreduce(self, value, op=np.add, staleness: int = 0) -> Generator:
        """Eventually consistent allreduce: may yield a *partial* reduction
        missing up to ``staleness`` contributions (Iakymchuk et al.,
        arXiv:2203.17063); :meth:`ec_fence` restores exactness. Only the
        GASPI backend implements it — notifications make "reduce with
        whatever has arrived" natural; two-sided and fence-based RMA
        synchronize globally per call and have nothing to be stale about.
        """
        raise CollectiveError(
            f"backend {self.backend!r} has no eventually-consistent "
            "allreduce (gaspi only)")
        yield  # pragma: no cover - makes this a generator

    def ec_fence(self) -> Generator:
        """Consume every straggler contribution and yield the list of
        *exact* per-round reductions for all ec rounds so far."""
        raise CollectiveError(
            f"backend {self.backend!r} has no eventually-consistent "
            "allreduce (gaspi only)")
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    def _trace(self, name: str, t0: float, elements: int) -> None:
        tr = self.engine.tracer
        if tr.enabled:
            tr.span("coll", f"{self.backend}.{name}", t0, self.engine.now,
                    rank=self.rank, elements=elements)

    # subclass hooks ----------------------------------------------------
    def _allreduce(self, arr: np.ndarray, op) -> Generator:
        raise NotImplementedError

    def _bcast(self, arr: np.ndarray, root: int) -> Generator:
        raise NotImplementedError

    def _barrier(self) -> Generator:
        raise NotImplementedError

    def _allgather(self, arr: np.ndarray) -> Generator:
        raise NotImplementedError


def check_root(root: int, n: int) -> None:
    if not 0 <= root < n:
        raise CollectiveError(f"root {root} out of range for {n} ranks")


def check_cap(size: int, cap: int, what: str) -> None:
    if size > cap:
        raise CollectiveError(
            f"{what} payload of {size} elements exceeds the declared cap "
            f"{cap}; raise the cap in make_collectives()")


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "CollectiveError",
    "Collectives",
    "coerce",
    "check_root",
    "check_cap",
]
