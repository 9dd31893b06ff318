"""One-sided MPI: windows, Put/Get, and synchronization modes.

Implements what paper §II-A/§III discusses:

* **Windows** expose one numpy buffer per rank.
* ``put``/``get`` move data without target-side calls.
* **Passive target, global shared lock** mode: ``lock_all``/``unlock_all``
  are cheap epochs; remote completion is obtained with ``flush(target)``,
  which costs the *extra acknowledgement round trip* identified by
  Belli & Hoefler (the target's ack travels back to the origin) — this is
  the cost that makes the MPI-RMA notification pattern (Put + flush +
  empty two-sided send) lose to GASPI's ``write_notify``; ablation A3
  measures exactly that.
* **Active target fence** mode: ``fence`` = flush-everything + barrier,
  the "parallelism barrier" §III complains about. COSMA-style codes
  (SNIPPETS.md, ``one_sided_communicator``) soften it with assertions:
  ``MPI_MODE_NOPRECEDE`` lets the opening fence skip the flush entirely
  (it *asserts* no RMA preceded it — we validate and raise on a lie) and
  ``MPI_MODE_NOSUCCEED`` marks the closing fence of an epoch, after which
  submitting further RMA until the next fence is erroneous.

All RMA synchronization here is blocking (generator-shaped): the MPI
standard defines no non-blocking variants, which is the first obstacle to
task-awareness the paper lists. :meth:`Window.iget` is the one concession
— it returns the completion :class:`~repro.sim.events.Event` instead of
yielding on it, so a fence-bounded epoch can keep many Gets in flight at
once (the COSMA pattern ``repro.collectives.rma`` reproduces); it is
sugar over the same wire traffic, not a task-aware extension.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.network.message import Message
from repro.mpi.comm import MPIContext, MPIRank
from repro.mpi.datatypes import CONTROL_BYTES
from repro.mpi.errors import MPIError

#: fence assertion bits (values as in mpi.h; combinable with ``|``)
MPI_MODE_NOPRECEDE = 1 << 13
MPI_MODE_NOSUCCEED = 1 << 14
MPI_MODE_NOPUT = 1 << 12

_rma_op_ids = itertools.count()


class Window:
    """A simulated MPI window over per-rank numpy buffers.

    Create collectively with :meth:`create`; each rank's buffer may have a
    different size (or be empty).
    """

    def __init__(self, context: MPIContext, buffers: Dict[int, np.ndarray],
                 info: Optional[Dict[str, bool]] = None):
        self.context = context
        self.engine = context.engine
        #: numbered per context, so traces do not depend on what else ran
        self.win_id = len(context._windows)
        for r, b in buffers.items():
            if not b.flags["C_CONTIGUOUS"]:
                raise MPIError(f"window buffer of rank {r} must be C-contiguous")
        self.buffers = buffers
        #: window info hints; ``no_locks=True`` promises the window is only
        #: synchronized with active-target fences, so passive-target
        #: ``lock_all`` becomes erroneous (COSMA's window creation hint)
        self.info: Dict[str, bool] = dict(info or {})
        # per-origin bookkeeping of outstanding ops / flush acks
        self._outstanding: Dict[int, Dict[int, int]] = {
            r: {} for r in range(context.n_ranks)
        }  # origin -> target -> count of un-acked put/get deliveries
        self._flush_waiters: Dict[int, list] = {r: [] for r in range(context.n_ranks)}
        self._get_waiters: Dict[int, object] = {}
        # origin -> get-completion events of the open epoch (for fences)
        self._pending_gets: Dict[int, list] = {r: [] for r in range(context.n_ranks)}
        # origins whose last fence carried MPI_MODE_NOSUCCEED (epoch closed)
        self._closed: Dict[int, bool] = {r: False for r in range(context.n_ranks)}
        for r in range(context.n_ranks):
            context.cluster.register_endpoint(r, f"rma{self.win_id}", self._make_handler(r))
        context._windows.append(self)

    @classmethod
    def create(cls, context: MPIContext, buffers: Dict[int, np.ndarray],
               info: Optional[Dict[str, bool]] = None) -> "Window":
        return cls(context, buffers, info=info)

    # ------------------------------------------------------------------
    # epochs (passive target / global shared lock)
    # ------------------------------------------------------------------
    def lock_all(self, origin: int) -> None:
        """Open a passive epoch; cheap, charged as one MPI call."""
        if self.info.get("no_locks"):
            raise MPIError(
                f"window {self.win_id} was created with no_locks=True; "
                "passive-target lock_all is erroneous on it")
        self.context.ranks[origin].lock.enter(self.context.ranks[origin]._c_call, "lock_all")

    def unlock_all(self, origin: int) -> Generator:
        """Close the passive epoch: implies a flush to every target."""
        yield from self.flush_all(origin)

    # ------------------------------------------------------------------
    # RMA operations (call-shaped)
    # ------------------------------------------------------------------
    def put(self, origin: int, local: np.ndarray, target: int, offset: int = 0) -> None:
        """Write ``local`` into ``target``'s window buffer at ``offset``
        elements. Non-blocking; remote completion via :meth:`flush`."""
        rank = self._origin_rank(origin)
        self._check_epoch_open(origin, "put")
        tgt_buf = self.buffers.get(target)
        if tgt_buf is None:
            raise MPIError(f"rank {target} exposes no memory in window {self.win_id}")
        if offset + local.size > tgt_buf.size:
            raise MPIError(
                f"put overflows window at rank {target}: "
                f"offset {offset} + {local.size} > {tgt_buf.size}"
            )
        grant = rank.lock.enter(self.context.fabric.cost("mpi.rma_put", 0.5e-6), "rma_put")
        self._outstanding[origin][target] = self._outstanding[origin].get(target, 0) + 1
        msg = Message(
            origin, target, f"rma{self.win_id}", "put", local.nbytes + CONTROL_BYTES,
            np.array(local, copy=True),
            meta={"offset": offset, "origin": origin},
        )
        self.context.cluster.send(msg, depart_delay=grant.end - self.engine.now)

    def iget(self, origin: int, local: np.ndarray, target: int, offset: int = 0):
        """Issue a Get and return its completion
        :class:`~repro.sim.events.Event` without blocking, so an epoch can
        hold many Gets in flight at once (the COSMA fence/Get pattern —
        ``repro.collectives.rma`` waits them with ``engine.all_of``). The
        closing :meth:`fence` also completes any still-pending Gets."""
        rank = self._origin_rank(origin)
        self._check_epoch_open(origin, "get")
        tgt_buf = self.buffers.get(target)
        if tgt_buf is None:
            raise MPIError(f"rank {target} exposes no memory in window {self.win_id}")
        if offset + local.size > tgt_buf.size:
            raise MPIError("get overflows window")
        grant = rank.lock.enter(self.context.fabric.cost("mpi.rma_put", 0.5e-6), "rma_get")
        op_id = next(_rma_op_ids)
        done = self.engine.event()
        self._get_waiters[op_id] = (done, local)
        self._pending_gets[origin].append(done)
        msg = Message(
            origin, target, f"rma{self.win_id}", "get_req", CONTROL_BYTES, None,
            meta={"offset": offset, "count": int(local.size), "op_id": op_id, "origin": origin},
        )
        self.context.cluster.send(msg, depart_delay=grant.end - self.engine.now)
        return done

    def get(self, origin: int, local: np.ndarray, target: int, offset: int = 0) -> Generator:
        """Read ``local.size`` elements from ``target``'s window into
        ``local``. Blocking-shaped for simplicity (a get's value is only
        usable after a flush anyway)."""
        done = self.iget(origin, local, target, offset)
        yield done

    # ------------------------------------------------------------------
    # synchronization (generator-shaped — MPI RMA sync is blocking)
    # ------------------------------------------------------------------
    def flush(self, origin: int, target: int) -> Generator:
        """Wait for remote completion of all ops ``origin`` issued to
        ``target``. Costs a full round trip: a flush request chases the
        puts (FIFO channel) and the target acks back."""
        rank = self._origin_rank(origin)
        rank.lock.enter(rank._c_call, "rma_flush")
        done = self.engine.event()
        msg = Message(
            origin, target, f"rma{self.win_id}", "flush_req", CONTROL_BYTES, None,
            meta={"origin": origin, "waiter": done},
        )
        self.context.cluster.send(msg)
        yield done

    def flush_all(self, origin: int) -> Generator:
        # flush is issued per target regardless of traffic; idle targets
        # still cost a round trip — why real codes avoid flush_all
        for target in sorted(self.buffers):
            yield from self.flush(origin, target)

    def flush_outstanding(self, origin: int) -> Generator:
        """Flush only the targets ``origin`` actually has un-acked puts at,
        and wait any still-pending Gets — remote completion for the same
        traffic as :meth:`flush_all` without round trips to idle targets."""
        for target in sorted(self.buffers):
            if self._outstanding[origin].get(target, 0) > 0:
                yield from self.flush(origin, target)
        gets = [ev for ev in self._pending_gets[origin] if not ev.triggered]
        self._pending_gets[origin].clear()
        if gets:
            yield self.engine.all_of(gets)

    def fence(self, origin: int, assertion: int = 0) -> Generator:
        """Active-target fence: complete outstanding RMA, then a full
        barrier — the "parallelism barrier" §III complains about.

        ``assertion`` takes the COSMA-style hints:

        * ``MPI_MODE_NOPRECEDE`` — the caller asserts it issued no RMA
          since the previous fence, so the flush phase is skipped entirely
          (we validate the claim and raise :class:`MPIError` on a lie);
        * ``MPI_MODE_NOSUCCEED`` — closes the epoch: issuing put/get from
          this origin before the next fence raises;
        * ``MPI_MODE_NOPUT`` — advisory here (no put will target the local
          window before the next fence); accepted, not enforced.

        A plain ``fence(origin)`` keeps the historical conservative
        behavior (flush every target, idle or not).
        """
        self._closed[origin] = False
        if assertion & MPI_MODE_NOPRECEDE:
            pending = {t: c for t, c in self._outstanding[origin].items() if c > 0}
            gets = [ev for ev in self._pending_gets[origin] if not ev.triggered]
            if pending or gets:
                raise MPIError(
                    f"fence(MPI_MODE_NOPRECEDE) at origin {origin} with "
                    f"outstanding RMA (puts per target {pending}, "
                    f"{len(gets)} pending gets)")
            self._pending_gets[origin].clear()
        elif assertion:
            yield from self.flush_outstanding(origin)
        else:
            yield from self.flush_all(origin)
        yield from self.context.ranks[origin].barrier()
        if assertion & MPI_MODE_NOSUCCEED:
            self._closed[origin] = True

    def _check_epoch_open(self, origin: int, op: str) -> None:
        if self._closed[origin]:
            raise MPIError(
                f"rma {op} from origin {origin} after a "
                "fence(MPI_MODE_NOSUCCEED) closed the epoch")

    # ------------------------------------------------------------------
    # endpoint
    # ------------------------------------------------------------------
    def _make_handler(self, this_rank: int):
        def handle(msg: Message) -> None:
            if msg.kind == "put":
                buf = self.buffers[this_rank]
                off = msg.meta["offset"]
                flat = buf.reshape(-1)
                flat[off : off + msg.payload.size] = msg.payload.reshape(-1)
                origin = msg.meta["origin"]
                self._outstanding[origin][this_rank] -= 1
            elif msg.kind == "get_req":
                buf = self.buffers[this_rank].reshape(-1)
                off, count = msg.meta["offset"], msg.meta["count"]
                reply = Message(
                    this_rank, msg.src_rank, f"rma{self.win_id}", "get_resp",
                    int(buf[off : off + count].nbytes) + CONTROL_BYTES,
                    np.array(buf[off : off + count], copy=True),
                    meta={"op_id": msg.meta["op_id"]},
                )
                self.context.cluster.send(reply)
            elif msg.kind == "get_resp":
                done, local = self._get_waiters.pop(msg.meta["op_id"])
                local.flat[:] = msg.payload
                done.succeed()
            elif msg.kind == "flush_req":
                # all prior puts from this origin already arrived (FIFO);
                # ack back to the origin
                ack = Message(
                    this_rank, msg.src_rank, f"rma{self.win_id}", "flush_ack",
                    CONTROL_BYTES, None, meta={"waiter": msg.meta["waiter"]},
                )
                self.context.cluster.send(ack)
            elif msg.kind == "flush_ack":
                msg.meta["waiter"].succeed()
            else:  # pragma: no cover - defensive
                raise MPIError(f"unknown rma message kind {msg.kind!r}")

        return handle

    def _origin_rank(self, origin: int) -> MPIRank:
        return self.context.ranks[origin]
