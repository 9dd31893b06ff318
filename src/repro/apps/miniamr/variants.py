"""The three miniAMR implementations.

Common structure per refinement epoch (paper §VI-B):

1. **Refinement** — serial per rank (charged from the cost model; the
   paper's refinement is only partially taskified, which is why hybrids
   run more ranks per node here), ending in a barrier.
2. **Agreement phase** (TAGASPI only) — neighbours agree on remote
   offsets and notification ids for every RMA message of the epoch.
3. **Data migration** (load balancing) — moved blocks' values travel to
   their new owners. The hybrid variants do this with *TAMPI* tasks —
   including the TAGASPI variant, demonstrating that both task-aware
   libraries mix in one application.
4. **Stages** — ``stages`` × ``refine_every`` rounds of face exchange +
   per-block compute, fully taskified in the hybrids.

Block values are double-buffered by stage parity, so a stage reads its
neighbours' previous-stage values — bit-identical to the sequential
reference.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

import numpy as np

from repro.apps.miniamr.mesh import AMRParams, MeshSchedule, source_of
from repro.apps.miniamr.plan import EpochPlan, build_epoch_plans, initial_values_array
from repro.harness.runner import Job
from repro.tasking import In, InOut, Out

_MIG_TAG = 1 << 20
_WINDOW_HIGH = 8000
_WINDOW_LOW = 4000


class AMRJobState:
    """Global (all-rank) precomputed state shared by a run."""

    def __init__(self, job: Job, params: AMRParams, schedule: MeshSchedule):
        self.job = job
        self.params = params
        self.schedule = schedule
        n_ranks = job.spec.n_ranks
        self.plans: List[List[EpochPlan]] = [
            build_epoch_plans(mesh, n_ranks, e)
            for e, mesh in enumerate(schedule.meshes)
        ]
        #: vals[epoch][rank] -> [par0 array, par1 array] (n_blocks x V)
        self.vals: List[List[List[np.ndarray]]] = []
        for e in range(len(schedule.meshes)):
            per_rank = []
            for r in range(n_ranks):
                n = max(self.plans[e][r].n_blocks, 1)
                per_rank.append([np.zeros((n, params.variables)),
                                 np.zeros((n, params.variables))])
            self.vals.append(per_rank)
        # epoch 0 initial values (parity 0)
        for r in range(n_ranks):
            self.vals[0][r][0][: self.plans[0][r].n_blocks] = initial_values_array(
                schedule.meshes[0], self.plans[0][r], params.variables)
        #: recv face buffers per epoch/rank: (n_in x V)
        self.recv: List[List[np.ndarray]] = [
            [np.zeros((max(len(self.plans[e][r].in_pairs), 1), params.variables))
             for r in range(n_ranks)]
            for e in range(len(schedule.meshes))
        ]
        self.ack_mem = [np.zeros(1) for _ in range(n_ranks)]
        #: refinement-phase windows (start, end) recorded by rank 0
        self.refine_windows: List[tuple] = []

    def epoch_start_parity(self, epoch: int) -> int:
        steps_before = epoch * self.params.refine_every
        return (steps_before * self.params.stages) % 2

    # -- cost model ------------------------------------------------------
    def compute_cost(self) -> float:
        m = self.job.spec.machine
        return m.kernel_time("amr_cell_var", self.params.cell_updates_per_block())

    def pack_cost(self) -> float:
        m = self.job.spec.machine
        return m.kernel_time(
            "amr_pack", self.params.variables * self.params.cell_dim**2)

    def refine_cost(self, rank: int, epoch: int) -> float:
        m = self.job.spec.machine
        n_local = self.plans[epoch][rank].n_blocks
        return m.kernel_time("amr_refine", n_local) + 30e-6

    def agree_cost(self, rank: int, epoch: int) -> float:
        m = self.job.spec.machine
        p = self.plans[epoch][rank]
        return m.kernel_time("amr_agree", len(p.in_pairs) + len(p.out_pairs))

    def total_work(self) -> float:
        """Cell updates summed over steps and stages (figure of merit)."""
        work = 0.0
        for step in range(self.params.timesteps):
            mesh = self.schedule.meshes[self.schedule.epoch_of_step(step)]
            work += (mesh.n_blocks * self.params.cell_updates_per_block()
                     * self.params.stages)
        return work

    # -- value plumbing shared by variants --------------------------------
    def inherit_local(self, rank: int, epoch: int) -> None:
        """Copy values of blocks whose source stayed on this rank (the
        migrated ones arrive over the network)."""
        prev_plan = self.plans[epoch - 1][rank]
        cur_plan = self.plans[epoch][rank]
        prev_mesh = self.schedule.meshes[epoch - 1]
        par_prev = self.epoch_start_parity(epoch - 1)
        # parity continues across the epoch boundary
        steps_in_prev = self.params.refine_every * self.params.stages
        par0 = (par_prev + steps_in_prev) % 2
        src_arr = self.vals[epoch - 1][rank][par0]
        dst_arr = self.vals[epoch][rank][self.epoch_start_parity(epoch)]
        for b in cur_plan.blocks:
            src = source_of(prev_mesh, b)
            if src is not None and src in prev_plan.slot_of:
                dst_arr[cur_plan.slot_of[b]] = src_arr[prev_plan.slot_of[src]]

    def gather_update(self, rank: int, epoch: int, block, par: int) -> None:
        """The stage update for one block (reference-identical order)."""
        plan = self.plans[epoch][rank]
        vals = self.vals[epoch][rank]
        recv = self.recv[epoch][rank]
        slot = plan.slot_of[block]
        old = vals[par][slot]
        sources = plan.sources.get(block, [])
        if sources:
            acc = None
            for s in sources:
                fv = vals[par][s.slot] if s.kind == "local" else recv[s.slot]
                acc = fv.copy() if acc is None else acc + fv
            new = 0.5 * old + 0.5 * (acc / len(sources))
        else:
            new = old.copy()
        vals[1 - par][slot] = new

    def final_values(self) -> Dict:
        """Assemble the final global block values (for verification)."""
        e = len(self.schedule.meshes) - 1
        par0 = self.epoch_start_parity(e)
        steps_in_last = (self.params.timesteps - e * self.params.refine_every)
        par_final = (par0 + steps_in_last * self.params.stages) % 2
        out = {}
        for r in range(self.job.spec.n_ranks):
            plan = self.plans[e][r]
            arr = self.vals[e][r][par_final]
            for b in plan.blocks:
                out[b] = arr[plan.slot_of[b]].copy()
        return out


# ======================================================================
# MPI-only
# ======================================================================

def mpi_only_main(state: AMRJobState, rank: int):
    job, params, sched = state.job, state.params, state.schedule
    drv = job.drivers[rank]

    def main(drv):
        for e, mesh in enumerate(sched.meshes):
            plan = state.plans[e][rank]
            if rank == 0:
                t_ref0 = drv.now
            # refinement (serial) + synchronization
            yield from drv.compute(state.refine_cost(rank, e))
            yield from drv.barrier()
            # migration
            if e > 0:
                state.inherit_local(rank, e)
                par0 = state.epoch_start_parity(e)
                reqs = []
                for i, (b, src, old_o, new_o) in enumerate(sched.moves[e - 1]):
                    if old_o == rank:
                        prev_plan = state.plans[e - 1][rank]
                        prev_par = (state.epoch_start_parity(e - 1)
                                    + params.refine_every * params.stages) % 2
                        row = state.vals[e - 1][rank][prev_par][prev_plan.slot_of[src]]
                        req = yield from drv.isend(row, new_o, _MIG_TAG + i)
                        reqs.append(req)
                    if new_o == rank:
                        row = state.vals[e][rank][par0][plan.slot_of[b]]
                        req = yield from drv.irecv(row, old_o, _MIG_TAG + i)
                        reqs.append(req)
                yield from drv.waitall(reqs)
                yield from drv.barrier()
            if rank == 0:
                state.refine_windows.append((t_ref0, drv.now))
            # stages
            par = state.epoch_start_parity(e)
            steps_here = min(params.refine_every,
                             params.timesteps - e * params.refine_every)
            recv_arr = state.recv[e][rank]
            vals = state.vals[e][rank]
            cost_c = state.compute_cost()
            cost_p = state.pack_cost()
            for _step in range(steps_here):
                for _stage in range(params.stages):
                    recvs = []
                    for p in plan.in_pairs:
                        r_ = yield from drv.irecv(recv_arr[p.slot], p.src_rank,
                                                  p.gidx)
                        recvs.append(r_)
                    sends = []
                    for p in plan.out_pairs:
                        yield from drv.compute(cost_p)  # pack
                        r_ = yield from drv.isend(vals[par][p.src_slot],
                                                  p.dst_rank, p.gidx)
                        sends.append(r_)
                    yield from drv.waitall(recvs)
                    yield from drv.compute(cost_p * len(plan.in_pairs))  # unpack
                    for b in plan.blocks:
                        if params.compute_data:
                            state.gather_update(rank, e, b, par)
                        yield from drv.compute(cost_c)
                    yield from drv.waitall(sends)
                    par = 1 - par

    return drv.spawn(main)


# ======================================================================
# Hybrid variants (shared scaffolding)
# ======================================================================

def _epoch_deps(plan: EpochPlan, e: int):
    """One epoch's dependency tuples, built once and reused by every
    stage: ``recv[k]`` for in-pair ``k`` and, per parity ``par``,
    ``send[par][k]`` for out-pair ``k`` and ``compute[par][i]`` for the
    plan's ``i``-th block. Each distinct access is one shared ``Dep``."""
    slots = range(plan.n_blocks)
    # reads and next-parity writes of block values, per parity
    v_in = [[In(("v", e, s, par)) for s in slots] for par in (0, 1)]
    v_out = [[Out(("v", e, s, 1 - par)) for s in slots] for par in (0, 1)]
    faces = [In(("f", e, p.slot)) for p in plan.in_pairs]
    recv = [(Out(("f", e, p.slot)),) for p in plan.in_pairs]
    send = [[(v_in[par][p.src_slot],) for p in plan.out_pairs]
            for par in (0, 1)]
    compute = []
    for par in (0, 1):
        per_block = []
        for b in plan.blocks:
            slot = plan.slot_of[b]
            deps = [v_in[par][slot], v_out[par][slot]]
            for src in plan.sources.get(b, []):
                deps.append(v_in[par][src.slot] if src.kind == "local"
                            else faces[src.slot])
            per_block.append(tuple(deps))
        compute.append(per_block)
    return recv, send, compute


def _hybrid_main(state: AMRJobState, rank: int, comm):
    """Build one rank's task graph, epoch by epoch.

    ``comm`` provides the variant-specific bodies, each called with
    ``task`` last and its other arguments bound by
    :func:`functools.partial`::

        comm.recv(e, p, task)                          # face p arrives
        comm.send(e, p, ss, par, task)                 # pack + send face p
        comm.compute(e, b, remote_ps, ss, par, task)   # update block b
        comm.send_onready(e, p) -> onready or None     # stages after the first

    Dependency tuples are built once per epoch and parity, and reused by
    every stage of the epoch.
    """
    job, params, sched = state.job, state.params, state.schedule
    rt = job.runtimes[rank]
    mpi = job.mpi.rank(rank)
    tampi = job.tampi[rank]

    def mig_send(row, dest, i, task):
        tampi.iwait(mpi.isend(row, dest, _MIG_TAG + i))

    def mig_recv(row, source, i, task):
        tampi.iwait(mpi.irecv(row, source, _MIG_TAG + i))

    def main(rt):
        eng = rt.engine
        for e, mesh in enumerate(sched.meshes):
            plan = state.plans[e][rank]
            if rank == 0:
                t_ref0 = eng.now
            # refinement (serial on the main task — not fully taskified)
            rt.charge_current_task(state.refine_cost(rank, e))
            comm.epoch_setup(e)  # agreement phase cost + segments (tagaspi)
            yield from rt.flush()
            yield from mpi.barrier()
            yield from rt.flush()
            # migration with TAMPI tasks (library mixing, §VI-B)
            if e > 0:
                state.inherit_local(rank, e)
                par0 = state.epoch_start_parity(e)
                prev_plan = state.plans[e - 1][rank]
                prev_par = (state.epoch_start_parity(e - 1)
                            + params.refine_every * params.stages) % 2
                for i, (b, src, old_o, new_o) in enumerate(sched.moves[e - 1]):
                    if old_o == rank:
                        row = state.vals[e - 1][rank][prev_par][prev_plan.slot_of[src]]
                        rt.submit(partial(mig_send, row, new_o, i), (),
                                  label="mig_send")
                    if new_o == rank:
                        row = state.vals[e][rank][par0][plan.slot_of[b]]
                        rt.submit(partial(mig_recv, row, old_o, i),
                                  (Out(("v", e, plan.slot_of[b], par0)),),
                                  label="mig_recv")
                yield from rt.taskwait()
                yield from mpi.barrier()
                yield from rt.flush()
            if rank == 0:
                state.refine_windows.append((t_ref0, eng.now))
            # stages
            recv_deps, send_deps, compute_deps = _epoch_deps(plan, e)
            recvs = [(partial(comm.recv, e, p), d)
                     for p, d in zip(plan.in_pairs, recv_deps)]
            sends = [(p, comm.send_onready(e, p)) for p in plan.out_pairs]
            computes = [(b, tuple(plan.in_pairs[s.slot]
                                  for s in plan.sources.get(b, [])
                                  if s.kind != "local"))
                        for b in plan.blocks]
            send, compute = comm.send, comm.compute
            par = state.epoch_start_parity(e)
            steps_here = min(params.refine_every,
                             params.timesteps - e * params.refine_every)
            ss = 0  # stage counter within this epoch
            for _step in range(steps_here):
                for _stage in range(params.stages):
                    for body, d in recvs:
                        rt.submit(body, d, label="recv")
                    for (p, onready), d in zip(sends, send_deps[par]):
                        # first stage after the agreement: slots are free
                        rt.submit(partial(send, e, p, ss, par), d,
                                  label="send",
                                  onready=onready if ss > 0 else None)
                    for (b, remote_ps), d in zip(computes, compute_deps[par]):
                        rt.submit(partial(compute, e, b, remote_ps, ss, par),
                                  d, label="compute")
                    ss += 1
                    par = 1 - par
                yield from rt.flush()
                if rt.outstanding > _WINDOW_HIGH:
                    while rt.outstanding > _WINDOW_LOW:
                        yield eng.timeout(50e-6)
                    rt.deps.prune()
            yield from rt.taskwait()
            rt.deps.prune()

    return rt.spawn_main(main)


class TampiAMRComm:
    """Two-sided stage communication (TAMPI variant)."""

    def __init__(self, state: AMRJobState, rank: int):
        self.state = state
        self.rank = rank
        self.mpi = state.job.mpi.rank(rank)
        self.tampi = state.job.tampi[rank]
        self.cost_c = state.compute_cost()
        self.cost_p = state.pack_cost()

    def epoch_setup(self, e: int) -> None:
        pass  # no agreement needed for two-sided

    def recv(self, e, p, task):
        recv = self.state.recv[e][self.rank]
        self.tampi.iwait(self.mpi.irecv(recv[p.slot], p.src_rank, p.gidx))

    def send(self, e, p, ss, par, task):
        vals = self.state.vals[e][self.rank]
        task.charge(self.cost_p)  # pack
        self.tampi.iwait(self.mpi.isend(vals[par][p.src_slot],
                                        p.dst_rank, p.gidx))

    def send_onready(self, e, p):
        return None

    def compute(self, e, b, remote_ps, ss, par, task):
        state = self.state
        if state.params.compute_data:
            state.gather_update(self.rank, e, b, par)
        # compute + unpack
        task.charge(self.cost_c + self.cost_p * len(remote_ps))


class TagaspiAMRComm:
    """One-sided stage communication with acks and onready (TAGASPI
    variant). Segment ids are allocated per epoch: vals (two parities),
    recv faces, and ack space."""

    def __init__(self, state: AMRJobState, rank: int):
        self.state = state
        self.rank = rank
        self.gaspi = state.job.gaspi.rank(rank)
        self.tagaspi = state.job.tagaspi[rank]
        self.nq = state.job.spec.n_queues
        self.cost_c = state.compute_cost()
        self.cost_p = state.pack_cost()

    def _segs(self, e: int):
        base = 16 + 4 * e
        return base, base + 1, base + 2, base + 3  # vals0, vals1, recv, ack

    def epoch_setup(self, e: int) -> None:
        s0, s1, sr, sa = self._segs(e)
        vals = self.state.vals[e][self.rank]
        self.gaspi.segment_register(s0, vals[0])
        self.gaspi.segment_register(s1, vals[1])
        self.gaspi.segment_register(sr, self.state.recv[e][self.rank])
        self.gaspi.segment_register(sa, self.state.ack_mem[self.rank])
        # the agreement phase is a serial per-rank cost (§VI-B)
        self.state.job.runtimes[self.rank].charge_current_task(
            self.state.agree_cost(self.rank, e))

    def recv(self, e, p, task):
        self.tagaspi.notify_iwait(self._segs(e)[2], p.slot)

    def send(self, e, p, ss, par, task):
        segs = self._segs(e)
        V = self.state.params.variables
        task.charge(self.cost_p)  # pack
        self.tagaspi.write_notify(
            segs[par], p.src_slot * V, p.dst_rank,
            segs[2], p.remote_slot * V, V,
            notif_id=p.remote_slot, notif_val=ss + 1,
            queue=p.remote_slot % self.nq)

    def send_onready(self, e, p):
        return partial(self._wait_ack, e, p)

    def _wait_ack(self, e, p, task):
        self.tagaspi.notify_iwait(self._segs(e)[3], p.ack_id)

    def compute(self, e, b, remote_ps, ss, par, task):
        state = self.state
        if state.params.compute_data:
            state.gather_update(self.rank, e, b, par)
        task.charge(self.cost_c + self.cost_p * len(remote_ps))
        # ack every consumed remote face so its sender may overwrite
        # the slot next stage (§IV-B: ack inside the consumer task)
        sa = self._segs(e)[3]
        for p in remote_ps:
            self.tagaspi.notify(p.src_rank, sa, p.sender_ack_id,
                                ss + 1, queue=p.slot % self.nq)


def tampi_main(state: AMRJobState, rank: int):
    return _hybrid_main(state, rank, TampiAMRComm(state, rank))


def tagaspi_main(state: AMRJobState, rank: int):
    return _hybrid_main(state, rank, TagaspiAMRComm(state, rank))
