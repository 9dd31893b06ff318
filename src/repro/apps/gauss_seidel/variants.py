"""The three Gauss–Seidel implementations (paper §VI-A).

All variants exchange per-block-column boundary-row segments with the
upper/lower neighbour ranks:

* after updating its **last** block row at step *t*, a rank sends that row
  (per block column) downwards — the lower neighbour is waiting on it to
  start step *t* (the wavefront);
* after updating its **first** block row at step *t*, a rank sends that
  row upwards tagged for step *t+1* — the upper neighbour uses it as its
  "previous sweep" bottom halo;
* before the loop, first rows are sent upwards tagged for step 0 (initial
  state).

Tag / notification-id scheme: direction DOWN carries (step, block column),
direction UP carries (step+1, block column).
"""

from __future__ import annotations

from functools import partial
from typing import List

import numpy as np

from repro.apps.gauss_seidel.common import (
    GSParams,
    block_compute_cost,
    gs_sweep_block,
    initial_grid,
    partition_rows,
)
from repro.apps.gauss_seidel.storage import (
    RankStorage,
    SEG_HALO_BOTTOM,
    SEG_HALO_TOP,
    SEG_LOCAL,
)
from repro.harness.runner import Job
from repro.tasking import In, InOut, Out

#: throttle for hybrid task submission (tasks in flight per rank)
_WINDOW_HIGH = 6000
_WINDOW_LOW = 3000


def make_storages(job: Job, params: GSParams) -> List[RankStorage]:
    n_ranks = job.spec.n_ranks
    grid = initial_grid(params) if params.compute_data else None
    ranges = partition_rows(params.rows, n_ranks)
    return [RankStorage(params, r, n_ranks, ranges[r], grid) for r in range(n_ranks)]


def _tag(step: int, direction: int, j: int, nbj: int) -> int:
    # direction: 0 = down (top halo of the receiver), 1 = up (bottom halo)
    return (step * 2 + direction) * nbj + j


def _noise_fn(job: Job, rank: int):
    """Per-rank multiplicative compute-time noise (machine.compute_jitter)."""
    sigma = job.spec.machine.compute_jitter
    if sigma <= 0.0 or job.spec.seed is None:
        return lambda cost: cost
    rng = job.app_rng("gs-noise", rank)
    return lambda cost: cost * rng.lognormal(0.0, sigma)


# ======================================================================
# MPI-only (optimized non-blocking, paper's baseline [6])
# ======================================================================

def mpi_only_main(job: Job, params: GSParams, st: RankStorage):
    """Main loop of one single-threaded MPI rank: pre-posted non-blocking
    receives, per-block sends issued as soon as the block is updated,
    send-completion waits deferred to the end of the step."""
    machine = job.spec.machine
    drv = job.drivers[st.rank]
    cols, bs = params.cols, params.block_size
    nbj = cols // bs
    up, down = st.rank - 1, st.rank + 1
    cost = block_compute_cost(machine, st.local_rows, bs)
    noisy = _noise_fn(job, st.rank)

    def main(drv):
        # initial upward exchange: my first row is my upper neighbour's
        # step-0 bottom halo
        init_sends = []
        if st.has_upper:
            # one library entry (one lock grant) for the whole first-row
            # halo: all blocks go to the same neighbour at the same instant
            row = st.first_row()
            # analysis-ok: consumed at t==0, and timesteps >= 1 is
            # validated (GSParams), so the zero-trip path cannot happen
            init_sends = yield from drv.isend_batch(
                [row[j * bs : (j + 1) * bs] for j in range(nbj)],
                up,
                [_tag(0, 1, j, nbj) for j in range(nbj)])

        for t in range(params.timesteps):
            recv_top = [None] * nbj
            recv_bot = [None] * nbj
            if st.has_upper:
                for j in range(nbj):
                    recv_top[j] = yield from drv.irecv(
                        st.halo_top[j * bs : (j + 1) * bs], up, _tag(t, 0, j, nbj))
            if st.has_lower:
                for j in range(nbj):
                    recv_bot[j] = yield from drv.irecv(
                        st.halo_bottom[j * bs : (j + 1) * bs], down, _tag(t, 1, j, nbj))

            sends = []
            for j in range(nbj):
                if recv_top[j] is not None:
                    yield from drv.wait(recv_top[j])
                if recv_bot[j] is not None:
                    yield from drv.wait(recv_bot[j])
                if params.compute_data:
                    j0, j1 = j * bs, (j + 1) * bs
                    left = st.local[:, j0 - 1] if j > 0 else st.side_zeros
                    right = (st.local[:, j1].copy() if j1 < cols else st.side_zeros)
                    gs_sweep_block(
                        st.local[:, j0:j1],
                        st.halo_top[j0:j1],
                        st.halo_bottom[j0:j1],
                        left,
                        right,
                    )
                yield from drv.compute(noisy(cost))
                if st.has_lower:  # wavefront: neighbour waits on this now
                    req = yield from drv.isend(
                        st.last_row()[j * bs : (j + 1) * bs], down, _tag(t, 0, j, nbj))
                    sends.append(req)
                if st.has_upper:  # for the neighbour's next step
                    req = yield from drv.isend(
                        st.first_row()[j * bs : (j + 1) * bs], up,
                        _tag(t + 1, 1, j, nbj))
                    sends.append(req)
            if init_sends:
                sends.extend(init_sends)
                init_sends = []
            yield from drv.waitall(sends)

    return drv.spawn(main)


# ======================================================================
# Hybrid task graph (shared by TAMPI and TAGASPI variants)
# ======================================================================

def _hybrid_main(job: Job, params: GSParams, st: RankStorage, comm):
    """Build the per-timestep task graph on one rank.

    ``comm`` provides the variant-specific task bodies, each called as
    ``body(t, j, task)`` with ``(t, j)`` bound by :func:`functools.partial`::

        comm.recv_top(t, j, task)      # fills halo_top[j] for step t
        comm.recv_bottom(t, j, task)   # fills halo_bottom[j] for step t
        comm.send_down(t, j, task)     # sends last block row of step t
        comm.send_up(t, j, task)       # sends first block row for step t+1

    The initial upward exchange is ``send_up`` of step -1. Every
    dependency tuple and every compute body is built once, before the
    timestep loop: the graph is the same each step.
    """
    rt = job.runtimes[st.rank]
    machine = job.spec.machine
    bs = params.block_size
    cols = params.cols
    nbj = cols // bs
    nbi = max(1, (st.local_rows + bs - 1) // bs)
    # row ranges per block row (last one may be short)
    rows_of = [
        (i * bs, min((i + 1) * bs, st.local_rows)) for i in range(nbi)
    ]
    costs = [block_compute_cost(machine, i1 - i0, bs) for i0, i1 in rows_of]
    noisy = _noise_fn(job, st.rank)

    def compute(i, j, task):
        if params.compute_data:
            i0, i1 = rows_of[i]
            j0, j1 = j * bs, (j + 1) * bs
            m = i1 - i0
            A = st.local
            top = st.halo_top[j0:j1] if i == 0 else A[i0 - 1, j0:j1]
            bottom = st.halo_bottom[j0:j1] if i == nbi - 1 else A[i1, j0:j1].copy()
            left = A[i0:i1, j0 - 1] if j > 0 else st.side_zeros[:m]
            right = (A[i0:i1, j1].copy() if j1 < cols else st.side_zeros[:m])
            gs_sweep_block(A[i0:i1, j0:j1], top, bottom, left, right)
        task.charge(noisy(costs[i]))

    def block_deps(i, j):
        deps = [InOut(("b", i, j))]
        deps.append(In(("ht", j)) if i == 0 else In(("b", i - 1, j)))
        deps.append(In(("hb", j)) if i == nbi - 1 else In(("b", i + 1, j)))
        if j > 0:
            deps.append(In(("b", i, j - 1)))
        if j < nbj - 1:
            deps.append(In(("b", i, j + 1)))
        return tuple(deps)

    computes = [[(partial(compute, i, j), block_deps(i, j)) for j in range(nbj)]
                for i in range(nbi)]
    top_deps = [(Out(("ht", j)),) for j in range(nbj)]
    bottom_deps = [(Out(("hb", j)),) for j in range(nbj)]
    first_row_deps = [(In(("b", 0, j)),) for j in range(nbj)]
    last_row_deps = [(In(("b", nbi - 1, j)),) for j in range(nbj)]
    recv_top, recv_bottom = comm.recv_top, comm.recv_bottom
    send_up, send_down = comm.send_up, comm.send_down

    def main(rt):
        eng = rt.engine
        if st.has_upper:
            # my first row is my upper neighbour's step-0 bottom halo
            for j in range(nbj):
                rt.submit(partial(send_up, -1, j), first_row_deps[j],
                          label="send_up")
        for t in range(params.timesteps):
            for j in range(nbj):
                if st.has_upper:
                    rt.submit(partial(recv_top, t, j), top_deps[j],
                              label="recv_top")
                if st.has_lower:
                    rt.submit(partial(recv_bottom, t, j), bottom_deps[j],
                              label="recv_bottom")
            for i in range(nbi):
                for body, deps in computes[i]:
                    rt.submit(body, deps, label="compute")
                # boundary-row sends, submitted right after the block row
                # that produces them so they can start as soon as possible
                if i == 0 and st.has_upper:
                    for j in range(nbj):
                        rt.submit(partial(send_up, t, j), first_row_deps[j],
                                  label="send_up")
                if i == nbi - 1 and st.has_lower:
                    for j in range(nbj):
                        rt.submit(partial(send_down, t, j), last_row_deps[j],
                                  label="send_down")
            yield from rt.flush()
            if rt.outstanding > _WINDOW_HIGH:
                while rt.outstanding > _WINDOW_LOW:
                    yield eng.timeout(50e-6)
                rt.deps.prune()
        yield from rt.taskwait()

    return rt.spawn_main(main)


# ======================================================================
# TAMPI variant
# ======================================================================

class TampiGSComm:
    """Two-sided communication tasks using TAMPI_Iwait (paper §VI-A)."""

    def __init__(self, job: Job, params: GSParams, st: RankStorage):
        self.st = st
        self.mpi = job.mpi.rank(st.rank)
        self.tampi = job.tampi[st.rank]
        self.bs = params.block_size
        self.nbj = params.cols // params.block_size

    def recv_top(self, t, j, task):
        st, bs = self.st, self.bs
        req = self.mpi.irecv(st.halo_top[j * bs : (j + 1) * bs],
                             st.rank - 1, _tag(t, 0, j, self.nbj))
        self.tampi.iwait(req)

    def recv_bottom(self, t, j, task):
        st, bs = self.st, self.bs
        req = self.mpi.irecv(st.halo_bottom[j * bs : (j + 1) * bs],
                             st.rank + 1, _tag(t, 1, j, self.nbj))
        self.tampi.iwait(req)

    def send_down(self, t, j, task):
        st, bs = self.st, self.bs
        req = self.mpi.isend(st.last_row()[j * bs : (j + 1) * bs],
                             st.rank + 1, _tag(t, 0, j, self.nbj))
        self.tampi.iwait(req)

    def send_up(self, t, j, task):
        st, bs = self.st, self.bs
        req = self.mpi.isend(st.first_row()[j * bs : (j + 1) * bs],
                             st.rank - 1, _tag(t + 1, 1, j, self.nbj))
        self.tampi.iwait(req)


# ======================================================================
# TAGASPI variant
# ======================================================================

class TagaspiGSComm:
    """One-sided communication tasks using TAGASPI (paper §VI-A).

    Senders ``write_notify`` directly into the neighbour's halo segment,
    multiplexing queues by block column; receivers just
    ``notify_iwait``. Notification values carry step+1 (non-zero).
    No ack notifications are needed: the reverse halo exchange already
    transitively orders each write after the consumption of the previous
    one (see tests/test_apps_gauss_seidel.py::test_no_overwrite_hazard).
    """

    def __init__(self, job: Job, params: GSParams, st: RankStorage):
        self.st = st
        self.gaspi = job.gaspi.rank(st.rank)
        self.tagaspi = job.tagaspi[st.rank]
        self.bs = params.block_size
        self.n_queues = job.spec.n_queues
        # register segments
        self.gaspi.segment_register(SEG_HALO_TOP, st.halo_top)
        self.gaspi.segment_register(SEG_HALO_BOTTOM, st.halo_bottom)
        self.gaspi.segment_register(SEG_LOCAL, st.local_segment_array())

    def recv_top(self, t, j, task):
        self.tagaspi.notify_iwait(SEG_HALO_TOP, j)

    def recv_bottom(self, t, j, task):
        self.tagaspi.notify_iwait(SEG_HALO_BOTTOM, j)

    def send_down(self, t, j, task):
        st, bs = self.st, self.bs
        seg, off, cnt = st.last_row_seg(j * bs, bs)
        self.tagaspi.write_notify(
            seg, off, st.rank + 1, SEG_HALO_TOP, j * bs, cnt,
            notif_id=j, notif_val=t + 1, queue=j % self.n_queues)

    def send_up(self, t, j, task):
        st, bs = self.st, self.bs
        seg, off, cnt = st.first_row_seg(j * bs, bs)
        self.tagaspi.write_notify(
            seg, off, st.rank - 1, SEG_HALO_BOTTOM, j * bs, cnt,
            notif_id=j, notif_val=t + 2, queue=j % self.n_queues)


def tampi_main(job: Job, params: GSParams, st: RankStorage):
    return _hybrid_main(job, params, st, TampiGSComm(job, params, st))


def tagaspi_main(job: Job, params: GSParams, st: RankStorage):
    return _hybrid_main(job, params, st, TagaspiGSComm(job, params, st))
