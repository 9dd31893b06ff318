"""MPI RMA fence+Get collectives in the COSMA style.

Reproduces the ``one_sided_communicator`` idiom from COSMA (SNIPPETS.md):
a window created with the ``no_locks`` info hint, epochs opened with
``fence(MPI_MODE_NOPRECEDE)`` (no flush — the assertion is validated),
data pulled with concurrent Gets, and the epoch closed with
``fence(MPI_MODE_NOSUCCEED)``. Every rank exposes one staging buffer in a
single shared :class:`~repro.mpi.rma.Window` sized by the largest declared
payload; each collective is one exposure epoch:

1. write the local contribution into the own window buffer (a plain local
   store — the preceding close fence guarantees no Get is still reading);
2. opening fence — the "parallelism barrier" that synchronizes exposure;
3. :meth:`Window.iget` from every peer *concurrently* (their completion
   events are waited together, so the Gets share the epoch instead of
   serializing round trips);
4. closing fence; reduce/concatenate locally in rank order (deterministic
   float64 sums).

The cost profile is the honest one: two barriers per collective plus an
n-1 Get incast per rank — cheap at small rank counts, and exactly the
scaling weakness versus the GASPI notification ring that
``benchmarks/explain/test_collectives.py`` quantifies. The RMA race detector of
``repro.analysis`` watches GASPI segments, not MPI windows; fence epochs
are race-free by construction here (no overlap between exposure and
access epochs), which ``check=strict`` runs confirm by staying clean.
"""

from __future__ import annotations

from typing import Dict, Generator, List

import numpy as np

from repro.collectives.base import Collectives, check_cap, check_root
from repro.mpi.comm import MPIContext
from repro.mpi.rma import MPI_MODE_NOPRECEDE, MPI_MODE_NOSUCCEED, Window


class RmaCollectives(Collectives):
    """Per-rank handle over one shared fence-synchronized window."""

    backend = "rma"

    def __init__(self, window: Window, rank: int, max_elems: int):
        ctx = window.context
        super().__init__(ctx.engine, rank, ctx.n_ranks)
        self.window = window
        self.mpi = ctx.ranks[rank]
        self.max_elems = max_elems

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, context: MPIContext, max_elems: int) -> List["RmaCollectives"]:
        """Collectively create the shared ``no_locks`` window and one
        handle per rank (the window-creation step of COSMA's
        communicator)."""
        buffers: Dict[int, np.ndarray] = {
            r: np.zeros(max(int(max_elems), 1), dtype=np.float64)
            for r in range(context.n_ranks)
        }
        window = Window.create(context, buffers, info={"no_locks": True})
        return [cls(window, r, max_elems) for r in range(context.n_ranks)]

    # ------------------------------------------------------------------
    def _expose(self, arr: np.ndarray) -> Generator:
        """Publish ``arr`` in the own window buffer and open the epoch."""
        self.window.buffers[self.rank][:arr.size] = arr
        # analysis-ok: every _expose is paired with _close by its caller
        yield from self.window.fence(self.rank, MPI_MODE_NOPRECEDE)

    def _close(self) -> Generator:
        yield from self.window.fence(self.rank, MPI_MODE_NOSUCCEED)

    def _pull(self, peers, count: int) -> Generator:
        """Concurrent Gets of ``count`` elements from every peer; returns
        ``{peer: array}`` once all completion events fired."""
        parts: Dict[int, np.ndarray] = {}
        events = []
        for peer in peers:
            local = np.empty(count, dtype=np.float64)
            parts[peer] = local
            events.append(self.window.iget(self.rank, local, peer))
        if events:
            yield self.engine.all_of(events)
        return parts

    # ------------------------------------------------------------------
    def _allreduce(self, arr: np.ndarray, op) -> Generator:
        check_cap(arr.size, self.max_elems, "rma allreduce")
        if self.n == 1:
            return arr.copy()
        yield from self._expose(arr)
        parts = yield from self._pull(
            (p for p in range(self.n) if p != self.rank), arr.size)
        yield from self._close()
        val = arr.copy()
        for peer in sorted(parts):  # fixed order: deterministic rounding
            val = np.asarray(op(val, parts[peer]), dtype=np.float64)
        return val

    def _allgather(self, arr: np.ndarray) -> Generator:
        check_cap(arr.size, self.max_elems, "rma allgather")
        m = arr.size
        out = np.empty(self.n * m, dtype=np.float64)
        out[self.rank * m:(self.rank + 1) * m] = arr
        if self.n == 1:
            return out
        yield from self._expose(arr)
        parts = yield from self._pull(
            (p for p in range(self.n) if p != self.rank), m)
        yield from self._close()
        for peer, block in parts.items():
            out[peer * m:(peer + 1) * m] = block
        return out

    def _bcast(self, arr: np.ndarray, root: int) -> Generator:
        check_root(root, self.n)
        check_cap(arr.size, self.max_elems, "rma bcast")
        if self.n == 1:
            return arr.copy()
        if self.rank == root:
            yield from self._expose(arr)
            out = arr.copy()
            yield from self._close()
            return out
        # non-roots expose nothing but still fence (active target is
        # collective); the root suffers the n-1 Get incast — naive RMA
        # bcast has no tree
        yield from self.window.fence(self.rank, MPI_MODE_NOPRECEDE)
        out = np.empty(arr.size, dtype=np.float64)
        yield self.window.iget(self.rank, out, root)
        yield from self._close()
        return out

    def _barrier(self) -> Generator:
        # an empty exposure epoch: fence(NOPRECEDE) is already the barrier
        # analysis-ok: nothing is exposed, so leaving the epoch open is safe
        yield from self.window.fence(self.rank, MPI_MODE_NOPRECEDE)
