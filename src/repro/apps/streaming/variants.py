"""The three Streaming implementations.

Pipeline layout: node ``k`` receives from node ``k-1`` and sends to node
``k+1``; with multiple ranks per node (MPI-only), rank ``r`` talks to
``r ± ranks_per_node`` so every process has exactly one upstream and one
downstream peer and the communication pattern is independent of the
ranks-per-node configuration (§VI-C).

Buffers hold exactly one chunk, so slots are reused every chunk:

* two-sided variants are naturally safe (receives gate the writes);
* the TAGASPI variant needs the §IV-B ack protocol — the *consumer* task
  acks a slot right after processing it, and the writer task's
  ``onready`` waits for that ack (Fig. 8).

In model mode (``compute_data=False``) nothing reads the chunk buffers, so
each is an :class:`~repro.network.message.Extent`: a size without contents.
The ack segment stays an array; it is one element.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

import numpy as np

from repro.apps.streaming.common import StreamingParams, node_function
from repro.harness.runner import Job
from repro.network.message import Extent
from repro.tasking import In, InOut, Out

SEG_RECV = 0
SEG_ACK = 1
SEG_SEND = 2

#: submission throttle for hybrid mains
_WINDOW_HIGH = 6000
_WINDOW_LOW = 3000


class StreamRank:
    """Geometry + buffers of one pipeline process."""

    def __init__(self, job: Job, params: StreamingParams, rank: int):
        spec = job.spec
        self.rank = rank
        self.node = job.cluster.node_of(rank)
        self.n_nodes = spec.n_nodes
        self.rpn = spec.ranks_per_node
        self.prev = rank - self.rpn if self.node > 0 else None
        self.next = rank + self.rpn if self.node < self.n_nodes - 1 else None
        if params.elements_per_chunk % self.rpn != 0:
            raise ValueError("ranks_per_node must divide elements_per_chunk")
        self.elems = params.elements_per_chunk // self.rpn
        if self.elems % params.block_size != 0:
            raise ValueError("block_size must divide per-rank chunk elements")
        self.bs = params.block_size
        self.nb = self.elems // self.bs
        buffer = np.zeros if params.compute_data else Extent
        self.rbuf = buffer(self.elems)
        self.sbuf = buffer(self.elems)
        self.ack_mem = np.zeros(1)
        # node-0 source offset of this rank's slice (for data generation)
        idx = rank % self.rpn
        self.slice_offset = idx * self.elems

    def source_block(self, chunk: int, b: int) -> np.ndarray:
        base = self.slice_offset + b * self.bs
        return np.arange(base, base + self.bs, dtype=np.float64) + chunk * 1000.0

    @property
    def is_first(self) -> bool:
        return self.node == 0

    @property
    def is_last(self) -> bool:
        return self.node == self.n_nodes - 1


def make_ranks(job: Job, params: StreamingParams) -> List[StreamRank]:
    return [StreamRank(job, params, r) for r in range(job.spec.n_ranks)]


def _block_cost(job: Job, bs: int) -> float:
    return job.spec.machine.kernel_time("stream_elem", bs)


# ======================================================================
# MPI-only
# ======================================================================

def mpi_only_main(job: Job, params: StreamingParams, sr: StreamRank,
                  outputs: Dict):
    drv = job.drivers[sr.rank]
    cost = _block_cost(job, sr.bs)
    nb, bs = sr.nb, sr.bs

    def main(drv):
        for c in range(params.chunks):
            recvs = [None] * nb
            if not sr.is_first:
                for b in range(nb):
                    recvs[b] = yield from drv.irecv(
                        sr.rbuf[b * bs : (b + 1) * bs], sr.prev, c * nb + b)
            sends = []
            for b in range(nb):
                sl = slice(b * bs, (b + 1) * bs)
                if sr.is_first:
                    if params.compute_data:
                        sr.sbuf[sl] = node_function(0, sr.source_block(c, b))
                else:
                    yield from drv.wait(recvs[b])
                    if params.compute_data:
                        sr.sbuf[sl] = node_function(sr.node, sr.rbuf[sl])
                yield from drv.compute(cost)
                if sr.next is not None:
                    # the writer emits one block per task; a unit batch is
                    # grant-arithmetic-identical to a plain isend but keeps
                    # the wire injection on the Cluster.send_batch path
                    reqs = yield from drv.isend_batch(
                        [sr.sbuf[sl]], sr.next, [c * nb + b])
                    sends.extend(reqs)
            if sr.is_last and params.compute_data and c == params.chunks - 1:
                outputs[sr.rank] = sr.sbuf.copy()
            if sends:
                yield from drv.waitall(sends)

    return drv.spawn(main)


# ======================================================================
# Hybrid TAMPI
# ======================================================================

def _compute_deps(sr: StreamRank) -> list:
    """Per block position: the compute task's accesses."""
    if sr.is_first:
        return [(InOut(("s", b)),) for b in range(sr.nb)]
    return [(InOut(("s", b)), In(("r", b))) for b in range(sr.nb)]


def tampi_main(job: Job, params: StreamingParams, sr: StreamRank,
               outputs: Dict):
    rt = job.runtimes[sr.rank]
    mpi = job.mpi.rank(sr.rank)
    tampi = job.tampi[sr.rank]
    cost = _block_cost(job, sr.bs)
    nb, bs = sr.nb, sr.bs
    slices = [slice(b * bs, (b + 1) * bs) for b in range(nb)]
    recv_deps = [(Out(("r", b)),) for b in range(nb)]
    compute_deps = _compute_deps(sr)
    send_deps = [(In(("s", b)),) for b in range(nb)]

    def recv(c, b, task):
        tampi.iwait(mpi.irecv(sr.rbuf[slices[b]], sr.prev, c * nb + b))

    def compute(c, b, task):
        if params.compute_data:
            sl = slices[b]
            src = (sr.source_block(c, b) if sr.is_first
                   else sr.rbuf[sl])
            sr.sbuf[sl] = node_function(sr.node, src)
            if sr.is_last and c == params.chunks - 1:
                outputs.setdefault(sr.rank, sr.sbuf)  # filled in place
        task.charge(cost)

    def send(c, b, task):
        tampi.iwait(mpi.isend(sr.sbuf[slices[b]], sr.next, c * nb + b))

    def main(rt):
        eng = rt.engine
        for c in range(params.chunks):
            for b in range(nb):
                if not sr.is_first:
                    rt.submit(partial(recv, c, b), recv_deps[b], label="recv")
                rt.submit(partial(compute, c, b), compute_deps[b],
                          label="compute")
                if sr.next is not None:
                    rt.submit(partial(send, c, b), send_deps[b], label="send")
            yield from rt.flush()
            if rt.outstanding > _WINDOW_HIGH:
                while rt.outstanding > _WINDOW_LOW:
                    yield eng.timeout(50e-6)
                rt.deps.prune()
        yield from rt.taskwait()

    return rt.spawn_main(main)


# ======================================================================
# Hybrid TAGASPI (ack notifications + onready, §IV-B and §V-A)
# ======================================================================

def tagaspi_main(job: Job, params: StreamingParams, sr: StreamRank,
                 outputs: Dict):
    rt = job.runtimes[sr.rank]
    gaspi = job.gaspi.rank(sr.rank)
    tagaspi = job.tagaspi[sr.rank]
    nq = job.spec.n_queues
    cost = _block_cost(job, sr.bs)
    nb, bs = sr.nb, sr.bs
    slices = [slice(b * bs, (b + 1) * bs) for b in range(nb)]

    gaspi.segment_register(SEG_RECV, sr.rbuf)
    gaspi.segment_register(SEG_ACK, sr.ack_mem)
    gaspi.segment_register(SEG_SEND, sr.sbuf)

    def wait_data(b, task):
        tagaspi.notify_iwait(SEG_RECV, b)

    def wait_ack(b, task):
        tagaspi.notify_iwait(SEG_ACK, b)

    def compute(c, b, task):
        if params.compute_data:
            sl = slices[b]
            src = (sr.source_block(c, b) if sr.is_first
                   else sr.rbuf[sl])
            sr.sbuf[sl] = node_function(sr.node, src)
            if sr.is_last and c == params.chunks - 1:
                outputs.setdefault(sr.rank, sr.sbuf)
        task.charge(cost)
        if not sr.is_first:
            # ack the slot right after consuming it — the
            # §IV-B "optimal point" for the ack notification
            tagaspi.notify(sr.prev, SEG_ACK, b, c + 1, queue=b % nq)

    def write(c, b, task):
        tagaspi.write_notify(SEG_SEND, b * bs, sr.next,
                             SEG_RECV, b * bs, bs,
                             notif_id=b, notif_val=c + 1,
                             queue=b % nq)

    # one body and one dependency tuple per block position, reused by
    # every chunk
    wait_data_tasks = [(partial(wait_data, b), (Out(("r", b)),))
                       for b in range(nb)]
    ack_waits = [partial(wait_ack, b) for b in range(nb)]
    ack_deps = [(Out(("ack", b)),) for b in range(nb)]
    compute_deps = _compute_deps(sr)
    write_deps = [(In(("s", b)),) for b in range(nb)]
    acked_write_deps = [(In(("s", b)), In(("ack", b))) for b in range(nb)]

    def main(rt):
        eng = rt.engine
        for c in range(params.chunks):
            for b in range(nb):
                if not sr.is_first:
                    body, deps = wait_data_tasks[b]
                    rt.submit(body, deps, label="wait")
                rt.submit(partial(compute, c, b), compute_deps[b],
                          label="compute")

                if sr.next is not None:
                    deps = write_deps[b]
                    onready = None
                    if c > 0:
                        if params.use_onready:
                            # Fig. 8: ack wait folded into the writer task
                            onready = ack_waits[b]
                        else:
                            # Fig. 5: a dedicated wait-ack task before the
                            # writer (ablation A1 measures the difference)
                            rt.submit(ack_waits[b], ack_deps[b],
                                      label="wait_ack")
                            deps = acked_write_deps[b]
                    rt.submit(partial(write, c, b), deps, label="write",
                              onready=onready)
            yield from rt.flush()
            if rt.outstanding > _WINDOW_HIGH:
                while rt.outstanding > _WINDOW_LOW:
                    yield eng.timeout(50e-6)
                rt.deps.prune()
        yield from rt.taskwait()

    return rt.spawn_main(main)
