"""Simulated MPI processes: point-to-point, completion, and collectives.

:class:`MPIContext` owns one :class:`MPIRank` per simulated MPI process.
All *call-shaped* methods (``isend``, ``irecv``, ``test``, ``testsome``)
are plain synchronous functions that

1. serialize on the process's global lock (charging the caller's CPU via
   the engine's current execution context), and
2. timestamp their hardware effects at the lock grant, so injection times
   are accurate even under lock contention.

*Blocking* operations (``wait``, ``waitall``, ``barrier``, ``allreduce``,
…) are generators to be driven with ``yield from`` inside a simulated
process; they suspend the caller until completion — the shape of the
optimized MPI-only baselines in the paper's evaluation.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.network.message import Message, payload_copy
from repro.network.topology import Cluster
from repro.mpi.datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_TAG_BASE,
    CONTROL_BYTES,
    buffer_nbytes,
    copy_into,
    validate_tag,
)
from repro.mpi.errors import MPIError
from repro.mpi.matching import MatchingEngine
from repro.mpi.requests import Request, RequestState
from repro.mpi.threading import GlobalLock
from repro.sim.context import AccumulatingSink, charge_current


class MPIContext:
    """A simulated ``MPI_COMM_WORLD`` over a cluster's placed ranks."""

    def __init__(self, cluster: Cluster):
        if cluster.n_ranks == 0:
            raise MPIError("place ranks on the cluster before creating MPIContext")
        self.cluster = cluster
        self.engine = cluster.engine
        self.fabric = cluster.fabric
        self.n_ranks = cluster.n_ranks
        self.ranks: List[MPIRank] = [MPIRank(self, r) for r in range(self.n_ranks)]
        self._windows: list = []  # populated by repro.mpi.rma

    def rank(self, r: int) -> "MPIRank":
        return self.ranks[r]

    def total_time_in_mpi(self) -> float:
        """Aggregate wait+hold time inside the MPI library across ranks —
        the paper's §VI-C "total time inside MPI" metric."""
        return sum(rk.lock.time_in_mpi for rk in self.ranks)

    def total_wait_in_mpi(self) -> float:
        return sum(rk.lock.wait_in_mpi for rk in self.ranks)


class MPIRank:
    """One simulated MPI process."""

    def __init__(self, context: MPIContext, rank: int):
        self.context = context
        self.engine = context.engine
        self.cluster = context.cluster
        self.fabric = context.fabric
        self.rank = rank
        self.lock = GlobalLock(self.engine, rank)
        self.matching = MatchingEngine()
        # per-call counters swept by the harness's MetricsRegistry
        self.stats_isends = 0
        self.stats_irecvs = 0
        self.stats_eager = 0
        self.stats_rendezvous = 0
        #: rendezvous sends awaiting CTS, by sender-side request uid
        self._pending_sends: dict = {}
        #: armed RTS-retry timer per handshake (send request uid -> Event);
        #: cancelled lazily when the CTS lands so defused timers never churn
        #: the event heap
        self._rts_timers: dict = {}
        #: rendezvous recvs awaiting data, by receiver-side request uid
        self._pending_recvs: dict = {}
        #: RTS handshakes already seen (send_uid -> recv_uid or None),
        #: kept only under fault injection to dedup retried RTS
        self._seen_rts: dict = {}
        self.stats_rts_retries = 0
        self._coll_seq = 0
        self.cluster.register_endpoint(rank, "mpi", self._handle)
        # cached costs
        sw = self.fabric.cost
        self._c_call = sw("mpi.call", 0.5e-6)
        self._c_match = sw("mpi.match", 0.3e-6)
        self._c_ts_base = sw("mpi.testsome_base", 0.3e-6)
        self._c_ts_per = sw("mpi.testsome_per_req", 0.05e-6)
        self._eager_max = sw("mpi.eager_threshold", 16 * 1024)
        self._c_handshake = sw("mpi.rendezvous_handshake", 0.3e-6)

    # ------------------------------------------------------------------
    # point-to-point (non-blocking, call-shaped)
    # ------------------------------------------------------------------
    def isend(self, buf: Optional[np.ndarray], dest: int, tag: int) -> Request:
        """Start a non-blocking send; returns the request.

        Messages at most ``mpi.eager_threshold`` bytes go eagerly (buffered
        copy, local completion as soon as the bytes leave the NIC); larger
        ones use the rendezvous protocol (RTS → CTS → data).
        """
        validate_tag(tag)
        self._check_peer(dest)
        nbytes = buffer_nbytes(buf)
        req = Request(self.engine, "send", self.rank, dest, tag, buf, nbytes)
        self.stats_isends += 1
        tr = self.engine.tracer
        if tr.enabled:
            tr.mpi_request(req)
        grant = self.lock.enter(self._c_call, "isend")
        depart = grant.end - self.engine.now
        if nbytes <= self._eager_max:
            self.stats_eager += 1
            payload = payload_copy(buf)
            msg = Message(
                self.rank, dest, "mpi", "eager", nbytes + CONTROL_BYTES, payload,
                meta={"tag": tag},
            )
            local_done = self.cluster.send(msg, depart_delay=depart)
            req.complete_at(local_done)
        else:
            self.stats_rendezvous += 1
            req.state = RequestState.HANDSHAKE
            self._pending_sends[req.uid] = req
            rts = Message(
                self.rank, dest, "mpi", "rts", CONTROL_BYTES, None,
                meta={"tag": tag, "send_uid": req.uid, "nbytes": nbytes},
            )
            self.cluster.send(rts, depart_delay=depart)
            inj = self.cluster.injector
            if inj is not None and inj.plan.rendezvous_retry:
                self._arm_rts_retry(req, dest, tag, nbytes, attempt=0)
        return req

    def isend_batch(self, bufs: Sequence[Optional[np.ndarray]], dest: int,
                    tags: Sequence[int]) -> List[Request]:
        """Start ``len(bufs)`` non-blocking eager sends to ``dest`` in one
        library entry.

        Models a batched injection path: the library lock is acquired once
        for ``n * mpi.call`` seconds and message *j* departs when its slice
        of the hold completes, so the grant arithmetic for a single-message
        batch is bit-identical to :meth:`isend`. The single grant is the
        MPI cost semantics; the wire side is one :meth:`Cluster.send` per
        message at its departure delay (:meth:`Cluster.send_batch`).

        Any message larger than ``mpi.eager_threshold`` needs the
        rendezvous handshake, which cannot batch; those calls fall back to
        a plain per-message :meth:`isend` sequence.
        """
        if len(bufs) != len(tags):
            raise MPIError(
                f"isend_batch: {len(bufs)} buffers vs {len(tags)} tags")
        if not bufs:
            return []
        self._check_peer(dest)
        sizes = [buffer_nbytes(b) for b in bufs]
        if any(nb > self._eager_max for nb in sizes):
            return [self.isend(b, dest, t) for b, t in zip(bufs, tags)]
        for tag in tags:
            validate_tag(tag)
        n = len(bufs)
        reqs: List[Request] = []
        tr = self.engine.tracer
        for buf, tag, nbytes in zip(bufs, tags, sizes):
            req = Request(self.engine, "send", self.rank, dest, tag, buf,
                          nbytes)
            self.stats_isends += 1
            if tr.enabled:
                tr.mpi_request(req)
            reqs.append(req)
        now = self.engine.now
        unit = self._c_call
        grant = self.lock.enter(n * unit, "isend_batch")
        departs: List[float] = []
        msgs: List[Message] = []
        for j, (buf, tag, nbytes) in enumerate(zip(bufs, tags, sizes)):
            self.stats_eager += 1
            # message j leaves the library when its slice of the hold ends
            departs.append((grant.start + (j + 1) * unit) - now)
            payload = payload_copy(buf)
            msgs.append(Message(
                self.rank, dest, "mpi", "eager", nbytes + CONTROL_BYTES,
                payload, meta={"tag": tag},
            ))
        local_done = self.cluster.send_batch(msgs, departs)
        for req, done in zip(reqs, local_done):
            req.complete_at(done)
        return reqs

    # -- rendezvous handshake retry (repro.faults) ---------------------
    def _arm_rts_retry(self, req: Request, dest: int, tag: int, nbytes: int,
                       attempt: int) -> None:
        """Schedule a handshake-timeout check: if no CTS arrived by the
        RTO, the library re-sends the RTS (the receiver dedups)."""
        inj = self.cluster.injector
        delay = inj.plan.rendezvous_rto * (2.0 ** attempt)
        ev = self.engine.event()
        ev.add_callback(
            lambda _ev: self._rts_retry(req, dest, tag, nbytes, attempt))
        ev.succeed(delay=delay)
        self._rts_timers[req.uid] = ev

    def _rts_retry(self, req: Request, dest: int, tag: int, nbytes: int,
                   attempt: int) -> None:
        if req.uid not in self._pending_sends:
            self._rts_timers.pop(req.uid, None)
            return  # CTS arrived; handshake done
        inj = self.cluster.injector
        if inj is None or attempt >= inj.plan.max_rendezvous_retries:
            self._rts_timers.pop(req.uid, None)
            return  # give up; NIC-level retransmission may still deliver
        self.stats_rts_retries += 1
        inj.stats.rendezvous_retries += 1
        inj.report.record(self.engine.now, "mpi", "rts_retry", rank=self.rank,
                          dst=dest, tag=tag, attempt=attempt + 1)
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("faults", "rts_retry", self.engine.now, rank=self.rank,
                       dst=dest, tag=tag, attempt=attempt + 1)
        # the progress engine briefly takes the lock, like the CTS path
        grant = self.lock.enter(self._c_handshake, "rts_retry")
        rts = Message(
            self.rank, dest, "mpi", "rts", CONTROL_BYTES, None,
            meta={"tag": tag, "send_uid": req.uid, "nbytes": nbytes},
        )
        self.cluster.send(rts, depart_delay=grant.end - self.engine.now)
        self._arm_rts_retry(req, dest, tag, nbytes, attempt + 1)

    def irecv(self, buf: Optional[np.ndarray], source: int, tag: int) -> Request:
        """Start a non-blocking receive; returns the request."""
        if tag != ANY_TAG:
            validate_tag(tag)
        if source != ANY_SOURCE:
            self._check_peer(source)
        nbytes = buffer_nbytes(buf)
        req = Request(self.engine, "recv", self.rank, source, tag, buf, nbytes)
        self.stats_irecvs += 1
        tr = self.engine.tracer
        if tr.enabled:
            tr.mpi_request(req)
        grant = self.lock.enter(self._c_call, "irecv")
        msg = self.matching.post_recv(req)
        if msg is not None:
            self._satisfy_recv(req, msg, at=grant.end)
        return req

    def _satisfy_recv(self, req: Request, msg: Message, at: float) -> None:
        """Complete a receive from an unexpected-queue message."""
        req.sent_at = msg.injected_at
        if msg.kind == "eager":
            copy_into(req.buf, msg.payload)
            copy_cost = 0.0
            if req.buf is not None:
                # unexpected eager data is copied out of the internal buffer;
                # copy_into checked that the sizes match, and the cost reads
                # only the size, never the contents
                copy_cost = req.nbytes / self.fabric.intra_bandwidth
                charge_current(self.engine, copy_cost)
            req.complete_at(at + self._c_match + copy_cost)
        elif msg.kind == "rts":
            self._send_cts(req, msg, depart_delay=at - self.engine.now)
        else:  # pragma: no cover - defensive
            raise MPIError(f"unexpected queued message kind {msg.kind!r}")

    def _send_cts(self, req: Request, rts: Message, depart_delay: float) -> None:
        if req.nbytes != rts.meta["nbytes"]:
            raise MPIError(
                f"rendezvous size mismatch r{rts.src_rank}->r{self.rank} "
                f"tag={rts.meta['tag']}: recv {req.nbytes}B vs send {rts.meta['nbytes']}B"
            )
        self._pending_recvs[req.uid] = req
        inj = self.cluster.injector
        if inj is not None:
            # remember the handshake so a retried RTS maps back to this recv
            self._seen_rts[rts.meta["send_uid"]] = req.uid
        cts = Message(
            self.rank, rts.src_rank, "mpi", "cts", CONTROL_BYTES, None,
            meta={"send_uid": rts.meta["send_uid"], "recv_uid": req.uid},
        )
        self.cluster.send(cts, depart_delay=depart_delay)

    # ------------------------------------------------------------------
    # completion (call-shaped)
    # ------------------------------------------------------------------
    def test(self, req: Request) -> bool:
        """MPI_Test: one lock round; True if the request completed."""
        self.lock.enter(self._c_ts_base + self._c_ts_per, "test")
        return req.done

    def testsome(self, reqs: Sequence[Request]) -> List[int]:
        """MPI_Testsome: indices of completed requests; lock hold grows with
        the number of requests inspected (the TAMPI poller's cost)."""
        self.lock.enter(self._c_ts_base + self._c_ts_per * len(reqs), "testsome")
        return [i for i, r in enumerate(reqs) if r.done]

    def testsome_timed(self, reqs: Sequence[Request]):
        """Like :meth:`testsome` but also returns the lock grant, so the
        caller (TAMPI's poller) can timestamp downstream effects at the
        moment the lock was actually acquired — under contention, the
        completion *detection* is delayed by the lock wait, which is the
        critical-path effect of §VI-C."""
        grant = self.lock.enter(self._c_ts_base + self._c_ts_per * len(reqs), "testsome")
        return grant, [i for i, r in enumerate(reqs) if r.done]

    # ------------------------------------------------------------------
    # blocking operations (generator-shaped)
    # ------------------------------------------------------------------
    def wait(self, req: Request) -> Generator:
        """MPI_Wait: suspend the calling process until completion."""
        self.lock.enter(self._c_call, "wait")
        if not req.done:
            yield from self._block("wait", (req,), req.wait_event())

    def waitall(self, reqs: Sequence[Request]) -> Generator:
        """MPI_Waitall over a request list."""
        self.lock.enter(self._c_call, "waitall")
        still = [r for r in reqs if not r.done]
        if still:
            yield from self._block(
                "waitall", still,
                self.engine.all_of([r.wait_event() for r in still]))

    def _block(self, op: str, reqs: Sequence[Request], event,
               spans: bool = True) -> Generator:
        """Suspend on ``event``, each of ``reqs`` a blocked ``mpi_<op>``
        wait meanwhile; then, with ``spans``, one ``mpi_block`` per
        request, its interval clamped to the call."""
        tr = self.engine.tracer
        t0 = self.engine.now
        if tr.enabled:
            for r in reqs:
                tr.wait_enter(r, self.rank, "mpi_" + op, peer=r.peer,
                              tag=r.tag, kind=r.kind)
        try:
            yield event
        finally:
            if tr.enabled:
                now = self.engine.now
                for r in reqs:
                    tr.wait_exit(r)
                    if spans:
                        done = (now if r.completed_at is None
                                else min(max(r.completed_at, t0), now))
                        tr.mpi_block(self.rank, op, r, t0, done)

    # ------------------------------------------------------------------
    # collectives (generator-shaped, built on point-to-point)
    # ------------------------------------------------------------------
    def _coll_tag(self, round_: int) -> int:
        # 64 rounds per collective epoch is far more than dissemination needs
        return COLLECTIVE_TAG_BASE + (self._coll_seq % (1 << 16)) * 64 + round_

    def coll_tags(self, rounds: int) -> List[int]:
        """Reserve ``rounds`` matched collective tags and advance this
        rank's collective sequence number.

        External collective algorithms (``repro.collectives.twosided``)
        build on point-to-point and need per-round tags that match across
        ranks without colliding with the built-in collectives: as long as
        every rank makes the same collective calls in the same order (the
        MPI contract), the sequence numbers stay aligned and round ``i``
        maps to the same tag everywhere. Blocks of 64 tags are consumed
        per epoch, so ``rounds > 64`` simply reserves several epochs.
        """
        if rounds < 1:
            raise MPIError(f"coll_tags needs rounds >= 1, got {rounds}")
        tags: List[int] = []
        while len(tags) < rounds:
            take = min(rounds - len(tags), 64)
            tags.extend(self._coll_tag(i) for i in range(take))
            self._coll_seq += 1
        return tags

    def barrier(self) -> Generator:
        """Dissemination barrier (log2 rounds of zero-byte messages)."""
        n = self.context.n_ranks
        seq_tags = [self._coll_tag(r) for r in range(64)]
        self._coll_seq += 1
        if n == 1:
            return
        k, round_ = 1, 0
        while k < n:
            dst = (self.rank + k) % n
            src = (self.rank - k) % n
            sreq = self.isend(None, dst, seq_tags[round_])
            rreq = self.irecv(None, src, seq_tags[round_])
            yield from self.waitall([sreq, rreq])
            k *= 2
            round_ += 1

    def gather(self, value: np.ndarray, root: int) -> Generator:
        """Gather equal-size arrays to ``root``; yields the list at root,
        ``None`` elsewhere."""
        n = self.context.n_ranks
        tag = self._coll_tag(0)
        self._coll_seq += 1
        if self.rank == root:
            out: List[Optional[np.ndarray]] = [None] * n
            out[root] = np.array(value, copy=True)
            reqs = []
            for r in range(n):
                if r == root:
                    continue
                buf = np.empty_like(value)
                out[r] = buf
                reqs.append(self.irecv(buf, r, tag))
            yield from self.waitall(reqs)
            return out
        req = self.isend(value, root, tag)
        yield from self.wait(req)
        return None

    def bcast(self, value: np.ndarray, root: int) -> Generator:
        """Binomial-tree broadcast of an array; yields the array everywhere.

        Non-root callers pass a correctly-shaped buffer that is filled in.
        """
        n = self.context.n_ranks
        tag = self._coll_tag(1)
        self._coll_seq += 1
        if n == 1:
            return value
        vrank = (self.rank - root) % n
        # receive from parent (the set bit below which we forward)
        mask = 1
        while mask < n:
            if vrank & mask:
                parent = ((vrank - mask) + root) % n
                req = self.irecv(value, parent, tag)
                yield from self.wait(req)
                break
            mask <<= 1
        # forward to children at all lower bit positions
        mask >>= 1
        reqs = []
        while mask > 0:
            if vrank + mask < n:
                child = (vrank + mask + root) % n
                reqs.append(self.isend(value, child, tag))
            mask >>= 1
        if reqs:
            yield from self.waitall(reqs)
        return value

    def allreduce(self, value: np.ndarray, op=np.add) -> Generator:
        """Allreduce as gather-to-0 + reduce + broadcast; yields the result."""
        arr = np.asarray(value)
        gathered = yield from self.gather(arr, root=0)
        if self.rank == 0:
            acc = gathered[0]
            for part in gathered[1:]:
                acc = op(acc, part)
            result = np.array(acc, copy=True)
        else:
            result = np.empty_like(arr)
        result = yield from self.bcast(result, root=0)
        return result

    # ------------------------------------------------------------------
    # network endpoint
    # ------------------------------------------------------------------
    def _handle(self, msg: Message) -> None:
        if msg.kind in ("eager", "rts"):
            if msg.kind == "rts":
                inj = self.cluster.injector
                if inj is not None:
                    uid = msg.meta["send_uid"]
                    if uid in self._seen_rts:
                        # retried RTS for a handshake we already processed:
                        # if our CTS may have been lost (data not yet here),
                        # re-issue it; never re-match against another recv
                        recv_uid = self._seen_rts[uid]
                        req = (self._pending_recvs.get(recv_uid)
                               if recv_uid is not None else None)
                        if req is not None:
                            self._send_cts(req, msg, depart_delay=0.0)
                        return
                    self._seen_rts[uid] = None
            req = self.matching.incoming(msg)
            if req is None:
                return  # buffered as unexpected
            req.sent_at = msg.injected_at
            if msg.kind == "eager":
                copy_into(req.buf, msg.payload)
                req.complete_at(self.engine.now + self._c_match)
            else:
                self._send_cts(req, msg, depart_delay=0.0)
        elif msg.kind == "cts":
            send_req = self._pending_sends.pop(msg.meta["send_uid"], None)
            if send_req is None:
                return  # duplicate CTS from an RTS retry race; data is on its way
            # defuse the armed retry timer: lazy cancellation drops the
            # heap entry without firing a no-op retry event
            timer = self._rts_timers.pop(send_req.uid, None)
            if timer is not None:
                timer.cancel()
            # the library's progress engine injects the data transfer;
            # it briefly takes the lock (interfering with user calls) but
            # charges no user task.
            grant = self.lock.enter(self._c_handshake, "rendezvous_cts")
            data = Message(
                self.rank,
                msg.src_rank,
                "mpi",
                "data",
                send_req.nbytes + CONTROL_BYTES,
                payload_copy(send_req.buf),
                meta={"recv_uid": msg.meta["recv_uid"]},
            )
            local_done = self.cluster.send(data, depart_delay=grant.end - self.engine.now)
            send_req.complete_at(local_done)
        elif msg.kind == "data":
            recv_req = self._pending_recvs.pop(msg.meta["recv_uid"], None)
            if recv_req is None:
                # duplicate data after a CTS retry race; already satisfied
                inj = self.cluster.injector
                if inj is not None:
                    return
                raise MPIError(f"data for unknown recv {msg.meta['recv_uid']}")
            copy_into(recv_req.buf, msg.payload)
            recv_req.complete_at(self.engine.now + self._c_match)
        else:
            raise MPIError(f"unknown mpi message kind {msg.kind!r}")

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.context.n_ranks:
            raise MPIError(f"peer rank {peer} out of range [0, {self.context.n_ranks})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MPIRank {self.rank}/{self.context.n_ranks}>"


class MPIProcDriver:
    """Convenience wrapper for writing **MPI-only** rank processes (the
    paper's single-threaded pure-MPI baselines)::

        def main(drv):
            req = yield from drv.isend(buf, dest, tag)
            yield from drv.compute(seconds)
            yield from drv.waitall([req, ...])

    Time nobody else can observe is arithmetic: the driver keeps a clock
    :attr:`now` ``>= engine.now``, folds charged CPU into it as the
    left-to-right sums a chain of timeouts would produce, and ``compute``,
    ``wait`` and ``waitall`` only advance it (a wait suspends only on a
    receive nothing has matched yet). :meth:`sync` realises the clock as one
    event before every call another process can observe — a send, a receive
    post, a collective, process exit; a process that enters a bare substrate
    itself (``repro.collectives``, an RMA window) syncs first.
    :meth:`spawn` starts the process with ``drv.sink`` as its context.
    """

    def __init__(self, mpi_rank: MPIRank):
        self.mpi = mpi_rank
        self.engine = mpi_rank.engine
        self.sink = AccumulatingSink()
        self._t = 0.0

    def spawn(self, body_factory) -> "object":
        """Start ``body_factory(self)`` as this rank's main process."""
        proc = self.engine.process(self._main(body_factory(self)))
        proc.context = self.sink
        proc.name = f"mpi-only.rank{self.mpi.rank}"
        return proc

    def _main(self, body: Generator) -> Generator:
        result = yield from body
        yield from self.sync()  # the process ends at its own clock
        return result

    @property
    def now(self) -> float:
        """This rank's clock, pending CPU charges folded in."""
        t = max(self._t, self.engine.now)
        self._t = t = t + self.sink.take()
        return t

    def sync(self) -> Generator:
        """Bring the engine to this rank's clock (one event, or none)."""
        t = self.now
        if t > self.engine.now:
            ev = self.engine.event()
            ev._ok = ev._scheduled = True
            self.engine.schedule_at(ev, t)
            yield ev

    def compute(self, seconds: float) -> Generator:
        """Occupy this rank's (single) core for ``seconds``."""
        t0 = self.now
        if seconds > 0.0:
            self._t = t0 + seconds
            tr = self.engine.tracer
            if tr.enabled:
                # useful-work span for the single-threaded MPI baselines
                # (repro.perf derives per-rank efficiency from these)
                tr.span("proc", "compute", t0, self._t, rank=self.mpi.rank)
        yield from ()

    def isend(self, buf, dest: int, tag: int) -> Generator:
        yield from self.sync()
        return self.mpi.isend(buf, dest, tag)

    def isend_batch(self, bufs, dest: int, tags) -> Generator:
        """Issue ``len(bufs)`` sends to ``dest`` in one library entry
        (see :meth:`MPIRank.isend_batch`)."""
        yield from self.sync()
        return self.mpi.isend_batch(bufs, dest, tags)

    def irecv(self, buf, source: int, tag: int) -> Generator:
        yield from self.sync()
        return self.mpi.irecv(buf, source, tag)

    def wait(self, req: Request) -> Generator:
        yield from self._wait((req,), "wait")

    def waitall(self, reqs: Sequence[Request]) -> Generator:
        yield from self._wait(reqs, "waitall")

    def _wait(self, reqs: Sequence[Request], op: str) -> Generator:
        mpi = self.mpi
        if mpi._pending_sends:
            # a rendezvous handshake is out: the progress engine's CTS
            # handler shares the lock, so entry order has to be call order
            yield from self.sync()
        t0 = self.now
        mpi.lock.enter(mpi._c_call, op, at=t0)
        for r in reqs:
            if r.completed_at is None:  # nothing matched it yet: suspend
                yield from mpi._block(op, (r,), r.wait_event(), spans=False)
        tr = self.engine.tracer
        for r in reqs:
            if r.completed_at > t0:
                self._t = max(self._t, r.completed_at)
                if tr.enabled:
                    tr.mpi_block(mpi.rank, op, r, t0, r.completed_at)

    def barrier(self) -> Generator:
        yield from self.sync()
        yield from self.mpi.barrier()

    def allreduce(self, value, op=np.add) -> Generator:
        yield from self.sync()
        return (yield from self.mpi.allreduce(value, op))
