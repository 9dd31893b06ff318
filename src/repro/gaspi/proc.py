"""GASPI processes: segment registration and one-sided operations.

The API mirrors the GASPI standard functions the paper uses, in snake_case
without the ``gaspi_`` prefix, plus the §IV-C extension
(``operation_submit`` / ``request_wait``). All submission functions are
call-shaped (synchronous, CPU charged to the caller); the only
generator-shaped function is the legacy coarse-grained :meth:`wait`, which
the paper explicitly *obsoletes* for task-aware codes but which we provide
for completeness and for the fork-join baseline in the examples.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.gaspi.errors import (
    GASPI_SUCCESS,
    GaspiError,
    GaspiQueueError,
    GaspiTimeout,
)
from repro.gaspi.operations import (
    GASPI_BLOCK,
    GASPI_OP_NOTIFY,
    GASPI_OP_READ,
    GASPI_OP_WRITE,
    GASPI_OP_WRITE_NOTIFY,
    GASPI_STATE_CORRUPT,
    GASPI_STATE_HEALTHY,
    GASPI_TEST,
    low_level_requests,
)
from repro.gaspi.queues import GaspiQueue, LowLevelRequest
from repro.gaspi.segments import Segment
from repro.network.message import Message, payload_copy
from repro.network.topology import Cluster
from repro.sim.context import charge_current

#: wire size of a notification-only message / read request header
_CONTROL_BYTES = 32


class GaspiContext:
    """All GASPI ranks of the simulated job."""

    def __init__(self, cluster: Cluster, n_queues: int = 8):
        if cluster.n_ranks == 0:
            raise GaspiError("place ranks on the cluster before creating GaspiContext")
        if n_queues < 1:
            raise GaspiError("need at least one queue")
        self.cluster = cluster
        self.engine = cluster.engine
        self.fabric = cluster.fabric
        self.n_ranks = cluster.n_ranks
        self.n_queues = n_queues
        self.ranks: List[GaspiRank] = [GaspiRank(self, r) for r in range(self.n_ranks)]

    def rank(self, r: int) -> "GaspiRank":
        return self.ranks[r]


class GaspiRank:
    """One GASPI process: its segments, queues, and operations."""

    def __init__(self, context: GaspiContext, rank: int):
        self.context = context
        self.engine = context.engine
        self.cluster = context.cluster
        self.fabric = context.fabric
        self.rank = rank
        self.segments: Dict[int, Segment] = {}
        self.queues: List[GaspiQueue] = [
            GaspiQueue(self.engine, rank, q) for q in range(context.n_queues)
        ]
        self._read_waiters: Dict[int, Tuple[LowLevelRequest, int, int, int]] = {}
        self._read_op_seq = 0
        #: remote ranks whose operations were purged after a timeout —
        #: reported CORRUPT by state_vec_get until state_reset()
        self._conn_errors: set = set()
        self.cluster.register_endpoint(rank, "gaspi", self._handle)
        sw = self.fabric.cost
        self._c_op = sw("gaspi.op", 0.4e-6)
        self._c_notify = sw("gaspi.notify", 0.2e-6)
        self._c_rw_base = sw("gaspi.request_wait_base", 0.25e-6)
        self._c_rw_per = sw("gaspi.request_wait_per_req", 0.02e-6)

    # ------------------------------------------------------------------
    # segments
    # ------------------------------------------------------------------
    def segment_register(self, seg_id: int, array: np.ndarray) -> Segment:
        """Expose ``array`` as segment ``seg_id`` of this rank. A cost-model
        run may pass an :class:`~repro.network.message.Extent` instead: its
        writes and reads then move sizes, not bytes.

        All ranks of an application register the same segment ids
        (collectively, like ``gaspi_segment_create``), though sizes may
        differ per rank.
        """
        if seg_id in self.segments:
            raise GaspiError(f"segment {seg_id} already registered at rank {self.rank}")
        seg = Segment(seg_id, array)
        self.segments[seg_id] = seg
        return seg

    def segment(self, seg_id: int) -> Segment:
        try:
            return self.segments[seg_id]
        except KeyError:
            raise GaspiError(f"rank {self.rank} has no segment {seg_id}") from None

    def segment_access(self, seg_id: int, offset: int, count: int,
                       mode: str = "read") -> None:
        """Declare a local compute access to ``[offset, offset+count)`` of
        the local segment for the RMA race detector (a no-op unless the
        checkers observe, zero simulation cost always).

        Applications call this where real code would touch segment memory
        directly — e.g. before consuming received halo bytes — so the
        race detector can order local reads/writes against remote put/get
        traffic. ``mode`` is ``"read"`` or ``"write"``.
        """
        if mode not in ("read", "write"):
            raise GaspiError(f"bad access mode {mode!r}")
        self.segment(seg_id)  # validate the id even when disabled
        tr = self.engine.tracer
        if tr.enabled:
            tr.local_access(self.rank, seg_id, offset, count, mode)

    # ------------------------------------------------------------------
    # the §IV-C extension: tagged submission + fine-grained completion
    # ------------------------------------------------------------------
    def operation_submit(
        self,
        operation: str,
        tag: int,
        queue: int,
        *,
        local_seg: Optional[int] = None,
        local_off: int = 0,
        dest: Optional[int] = None,
        remote_seg: Optional[int] = None,
        remote_off: int = 0,
        count: int = 0,
        notif_id: Optional[int] = None,
        notif_val: int = 1,
    ) -> List[LowLevelRequest]:
        """Submit any GASPI operation with ``tag`` attached to each
        low-level request it creates (paper §IV-C); returns those requests
        (recovery layers use them for targeted purge + re-submit).

        The relevant subset of parameters per operation:

        * ``write``: local_seg/local_off, dest, remote_seg/remote_off, count
        * ``write_notify``: as write + notif_id/notif_val
        * ``notify``: dest, remote_seg, notif_id, notif_val
        * ``read``: local_seg/local_off (destination), dest,
          remote_seg/remote_off (source), count
        """
        q = self._queue(queue, op=operation)
        now = self.engine.now
        grant = q.device.use(self._c_op)
        charge_current(self.engine, grant.wait + self._c_op)
        depart = grant.end - now
        nreq = low_level_requests(operation)
        reqs: List[LowLevelRequest] = []

        if operation in (GASPI_OP_WRITE, GASPI_OP_WRITE_NOTIFY):
            src = self.segment(local_seg).view(local_off, count)
            meta = {
                "remote_seg": remote_seg,
                "remote_off": remote_off,
                "queue": queue,
            }
            if operation == GASPI_OP_WRITE_NOTIFY:
                if notif_id is None:
                    raise GaspiError("write_notify requires notif_id")
                meta["notif_id"] = notif_id
                meta["notif_val"] = notif_val
            msg = Message(
                self.rank, self._check_dest(dest), "gaspi", operation,
                src.nbytes + _CONTROL_BYTES, payload_copy(src), meta=meta,
            )
            local_done = self.cluster.send(msg, depart_delay=depart)
            for _ in range(nreq):
                req = LowLevelRequest(tag=tag, done_at=local_done, op=operation,
                                      submitted_at=now, dest=msg.dst_rank)
                q.post(req)
                reqs.append(req)

        elif operation == GASPI_OP_NOTIFY:
            if notif_id is None:
                raise GaspiError("notify requires notif_id")
            msg = Message(
                self.rank, self._check_dest(dest), "gaspi", operation,
                _CONTROL_BYTES, None,
                meta={"remote_seg": remote_seg, "notif_id": notif_id,
                      "notif_val": notif_val, "queue": queue},
            )
            local_done = self.cluster.send(msg, depart_delay=depart)
            req = LowLevelRequest(tag=tag, done_at=local_done, op=operation,
                                  submitted_at=now, dest=msg.dst_rank)
            q.post(req)
            reqs.append(req)

        elif operation == GASPI_OP_READ:
            dst_view = self.segment(local_seg).view(local_off, count)
            op_id = self._read_op_seq
            self._read_op_seq += 1
            # the request completes when the response lands; post with an
            # infinite done time and fix it up on arrival
            req = LowLevelRequest(tag=tag, done_at=float("inf"), op=operation,
                                  submitted_at=now, dest=dest)
            q.post(req)
            reqs.append(req)
            self._read_waiters[op_id] = (req, local_seg, local_off, count)
            msg = Message(
                self.rank, self._check_dest(dest), "gaspi", "read_req",
                _CONTROL_BYTES, None,
                meta={"remote_seg": remote_seg, "remote_off": remote_off,
                      "count": count, "op_id": op_id, "queue": queue},
            )
            self.cluster.send(msg, depart_delay=depart)
        else:  # pragma: no cover - low_level_requests already validated
            raise GaspiError(f"unknown operation {operation!r}")

        tr = self.engine.tracer
        if tr.enabled:
            # submit span: API entry -> queue-device grant (lock contention
            # on the queue shows up as the span stretching past _c_op)
            tr.gaspi_submit(self.rank, operation, now, grant, queue, count,
                            q.depth, local_seg, local_off, dest, remote_seg,
                            remote_off, notif_id)
        return reqs

    def request_wait(
        self, queue: int, max_reqs: int, timeout: float = GASPI_TEST
    ):
        """Harvest up to ``max_reqs`` locally-completed low-level requests
        from ``queue`` (paper §IV-C ``gaspi_request_wait``).

        With ``timeout=GASPI_TEST`` (the mode the TAGASPI poller uses)
        this never blocks: it is call-shaped and returns what is complete
        *now*, charging CPU proportional to the number of requests
        returned. Any other timeout returns a *generator* to be driven
        with ``yield from`` inside a simulated process: it suspends until
        at least one request completes, raising :class:`GaspiTimeout`
        (``GASPI_ERR_TIMEOUT``) if a finite ``timeout`` elapses first —
        the GASPI standard's bounded-wait failure semantics.
        """
        q = self._queue(queue, op="request_wait")
        if timeout == GASPI_TEST:
            done = q.harvest(max_reqs, self.engine.now)
            charge_current(self.engine, self._c_rw_base + self._c_rw_per * len(done))
            return done
        if timeout < 0.0:
            raise GaspiError(f"negative timeout {timeout}")
        return self._request_wait_blocking(q, queue, max_reqs, timeout)

    def _request_wait_blocking(self, q, queue: int, max_reqs: int,
                               timeout: float) -> Generator:
        eng = self.engine
        deadline = eng.now + timeout
        tr, wait = eng.tracer, object()
        if tr.enabled:
            tr.wait_enter(wait, self.rank, "request_wait", queue=queue)
        try:
            while True:
                done = q.harvest(max_reqs, eng.now)
                if done:
                    charge_current(eng, self._c_rw_base + self._c_rw_per * len(done))
                    return done
                charge_current(eng, self._c_rw_base)
                if eng.now >= deadline:
                    raise self._timeout_error("request_wait", timeout, queue=queue,
                                              pending=len(q.inflight))
                pending = [r.done_at for r in q.inflight if r.done_at != float("inf")]
                wake = min(pending) if pending else eng.now + self._poll_backoff()
                wake = min(wake, deadline)
                yield eng.timeout(max(wake - eng.now, 0.0))
        finally:
            if tr.enabled:
                tr.wait_exit(wait)

    # ------------------------------------------------------------------
    # standard-style convenience wrappers
    # ------------------------------------------------------------------
    def write(self, local_seg, local_off, dest, remote_seg, remote_off, count,
              queue: int, tag: int = 0) -> None:
        """gaspi_write: one-sided write, no notification."""
        self.operation_submit(
            GASPI_OP_WRITE, tag, queue, local_seg=local_seg, local_off=local_off,
            dest=dest, remote_seg=remote_seg, remote_off=remote_off, count=count,
        )

    def write_notify(self, local_seg, local_off, dest, remote_seg, remote_off,
                     count, notif_id, notif_val, queue: int, tag: int = 0) -> None:
        """gaspi_write_notify: write + notification-after-data."""
        self.operation_submit(
            GASPI_OP_WRITE_NOTIFY, tag, queue, local_seg=local_seg,
            local_off=local_off, dest=dest, remote_seg=remote_seg,
            remote_off=remote_off, count=count, notif_id=notif_id,
            notif_val=notif_val,
        )

    def notify(self, dest, remote_seg, notif_id, notif_val, queue: int,
               tag: int = 0) -> None:
        """gaspi_notify: data-free remote notification."""
        self.operation_submit(
            GASPI_OP_NOTIFY, tag, queue, dest=dest, remote_seg=remote_seg,
            notif_id=notif_id, notif_val=notif_val,
        )

    def read(self, local_seg, local_off, dest, remote_seg, remote_off, count,
             queue: int, tag: int = 0) -> None:
        """gaspi_read: one-sided read into the local segment."""
        self.operation_submit(
            GASPI_OP_READ, tag, queue, local_seg=local_seg, local_off=local_off,
            dest=dest, remote_seg=remote_seg, remote_off=remote_off, count=count,
        )

    # -- notification consumption (receiver side) -------------------------
    def notify_test(self, seg_id: int, notif_id: int) -> Optional[int]:
        """Non-blocking read-and-reset of one notification; None if not
        arrived. The primitive TAGASPI's poller is built on."""
        val = self.segment(seg_id).consume(notif_id)
        if val is not None:
            tr = self.engine.tracer
            if tr.enabled:
                tr.notify_consumed(self.rank, seg_id, notif_id, val)
        return val

    def notify_waitsome(self, seg_id: int, begin: int, count: int,
                        timeout: float = GASPI_BLOCK) -> Generator:
        """Blocking wait for any notification in [begin, begin+count);
        yields (id, value) with reset semantics. Legacy/fork-join style.

        A finite ``timeout`` bounds the wait: :class:`GaspiTimeout`
        (``GASPI_ERR_TIMEOUT``) is raised if no notification arrives in
        time — the application can then inspect :meth:`state_vec_get` and
        recover instead of hanging on a failed peer.
        """
        if timeout < 0.0:
            raise GaspiError(f"negative timeout {timeout}")
        seg = self.segment(seg_id)
        deadline = self.engine.now + timeout
        tr, wait = self.engine.tracer, object()
        if tr.enabled:
            tr.wait_enter(wait, self.rank, "notify_waitsome", seg=seg_id,
                          begin=begin, count=count)
        try:
            while True:
                hit = seg.consume_any(begin, count)
                if hit is not None:
                    if tr.enabled:
                        tr.notify_consumed(self.rank, seg_id, *hit)
                    return hit
                now = self.engine.now
                if now >= deadline:
                    raise self._timeout_error("notify_waitsome", timeout,
                                              seg=seg_id, pending=count)
                yield self.engine.timeout(
                    min(self._poll_backoff(), deadline - now))
        finally:
            if tr.enabled:
                tr.wait_exit(wait)

    def wait(self, queue: int, timeout: float = GASPI_BLOCK) -> Generator:
        """Legacy coarse-grained gaspi_wait: block until *all* operations
        posted to ``queue`` are locally complete (paper §II-B; obsoleted by
        TAGASPI but kept for the non-task-aware baselines). Returns
        ``GASPI_SUCCESS``; a finite ``timeout`` bounds the wait and raises
        :class:`GaspiTimeout` on expiry."""
        if timeout < 0.0:
            raise GaspiError(f"negative timeout {timeout}")
        q = self._queue(queue, op="wait")
        deadline = self.engine.now + timeout
        tr, wait = self.engine.tracer, object()
        if tr.enabled:
            tr.wait_enter(wait, self.rank, "gaspi_wait", queue=queue)
        try:
            while True:
                q.harvest(len(q.inflight), self.engine.now)
                if not q.inflight:
                    return GASPI_SUCCESS
                now = self.engine.now
                if now >= deadline:
                    raise self._timeout_error("wait", timeout, queue=queue,
                                              pending=len(q.inflight))
                pending = [r.done_at for r in q.inflight if r.done_at != float("inf")]
                if pending:
                    wake = min(min(pending), deadline)
                    yield self.engine.timeout(max(wake - now, 0.0))
                else:
                    yield self.engine.timeout(
                        min(self._poll_backoff(), deadline - now))
        finally:
            if tr.enabled:
                tr.wait_exit(wait)

    # ------------------------------------------------------------------
    # failure handling: health vector and queue purge (recovery support)
    # ------------------------------------------------------------------
    def state_vec_get(self) -> List[int]:
        """``gaspi_state_vec_get``: per-remote-rank health vector.

        A rank is reported :data:`GASPI_STATE_CORRUPT` if operations
        toward it were purged after a timeout (sticky until
        :meth:`state_reset`), or if the fault injector currently severs or
        stalls the path to it; healthy ranks report
        :data:`GASPI_STATE_HEALTHY`.
        """
        now = self.engine.now
        inj = self.cluster.injector
        my_node = self.cluster.node_of(self.rank)
        vec = []
        for r in range(self.context.n_ranks):
            state = GASPI_STATE_HEALTHY
            if r in self._conn_errors:
                state = GASPI_STATE_CORRUPT
            elif inj is not None and r != self.rank:
                node = self.cluster.node_of(r)
                if (inj.partitioned(my_node, node, now)
                        or inj.node_stalled(node, now)
                        or inj.node_stalled(my_node, now)):
                    state = GASPI_STATE_CORRUPT
            vec.append(state)
        return vec

    def state_reset(self, rank: int) -> None:
        """Clear the sticky error state toward ``rank`` (after recovery)."""
        self._conn_errors.discard(rank)

    def queue_purge(self, queue: int) -> int:
        """``gaspi_queue_purge``: abandon every in-flight request on
        ``queue`` without waiting for completion; returns how many were
        purged. The recovery step after a :class:`GaspiTimeout` — the
        queue is immediately reusable for re-submission."""
        q = self._queue(queue, op="queue_purge")
        return self._purge(q, q.purge())

    def purge_requests(self, queue: int, reqs: List[LowLevelRequest]) -> int:
        """Targeted purge of specific requests (TAGASPI recovery): abandon
        only ``reqs`` on ``queue``, leaving other operations in flight."""
        q = self._queue(queue, op="purge_requests")
        return self._purge(q, q.remove(reqs))

    def _purge(self, q, removed: List[LowLevelRequest]) -> int:
        if not removed:
            return 0
        charge_current(self.engine, self._c_op)
        dropped = {r.serial for r in removed}
        # forget read waiters whose request was purged: a late read_resp
        # must not overwrite the re-submitted read's buffer
        self._read_waiters = {
            op_id: entry for op_id, entry in self._read_waiters.items()
            if entry[0].serial not in dropped
        }
        for r in removed:
            if r.dest is not None:
                self._conn_errors.add(r.dest)
        inj = self.cluster.injector
        if inj is not None:
            inj.stats.purged += len(removed)
            inj.report.record(self.engine.now, "gaspi", "purge",
                              rank=self.rank, queue=q.queue_id,
                              purged=len(removed))
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("faults", "queue_purge", self.engine.now,
                       rank=self.rank, queue=q.queue_id, purged=len(removed))
        return len(removed)

    # ------------------------------------------------------------------
    # endpoint
    # ------------------------------------------------------------------
    def _handle(self, msg: Message) -> None:
        kind = msg.kind
        tr = self.engine.tracer
        if kind in (GASPI_OP_WRITE, GASPI_OP_WRITE_NOTIFY):
            seg = self.segment(msg.meta["remote_seg"])
            dst = seg.view(msg.meta["remote_off"], msg.payload.size)
            dst[:] = msg.payload
            if kind == GASPI_OP_WRITE_NOTIFY:
                # data first, then the notification — same instant, so no
                # observer can see the notification before the data
                seg.post_notification(msg.meta["notif_id"], msg.meta["notif_val"])
                if tr.enabled:
                    tr.notify_arrival(self.rank, msg, self.engine.now)
            if tr.enabled:
                tr.put_delivered(self.rank, msg)
        elif kind == GASPI_OP_NOTIFY:
            self.segment(msg.meta["remote_seg"]).post_notification(
                msg.meta["notif_id"], msg.meta["notif_val"]
            )
            if tr.enabled:
                tr.notify_arrival(self.rank, msg, self.engine.now)
                tr.notify_delivered(self.rank, msg)
        elif kind == "read_req":
            if tr.enabled:
                tr.remote_read(self.rank, msg)
            src = self.segment(msg.meta["remote_seg"]).view(
                msg.meta["remote_off"], msg.meta["count"]
            )
            reply = Message(
                self.rank, msg.src_rank, "gaspi", "read_resp",
                src.nbytes + _CONTROL_BYTES, payload_copy(src),
                meta={"op_id": msg.meta["op_id"]},
            )
            self.cluster.send(reply)
        elif kind == "read_resp":
            entry = self._read_waiters.pop(msg.meta["op_id"], None)
            if entry is None:
                # response to a read that was purged after a timeout (the
                # op was re-submitted); drop it rather than overwrite
                inj = self.cluster.injector
                if inj is not None:
                    inj.stats.stale_reads += 1
                    return
                raise GaspiError(
                    f"rank {self.rank}: read_resp for unknown op "
                    f"{msg.meta['op_id']}"
                )
            req, seg_id, off, count = entry
            if tr.enabled:
                tr.read_resp(self.rank, seg_id, off, count)
            self.segment(seg_id).view(off, count)[:] = msg.payload
            req.done_at = self.engine.now
        else:  # pragma: no cover - defensive
            raise GaspiError(f"unknown gaspi message kind {kind!r}")

    # ------------------------------------------------------------------
    def _queue(self, queue: int, op: Optional[str] = None) -> GaspiQueue:
        if not 0 <= queue < len(self.queues):
            raise GaspiQueueError(
                f"rank {self.rank}: queue {queue} out of range "
                f"[0, {len(self.queues)})",
                rank=self.rank, queue=queue, op=op,
            )
        return self.queues[queue]

    def _timeout_error(self, op: str, timeout: float, queue: Optional[int] = None,
                       seg: Optional[int] = None, pending: int = 0) -> GaspiTimeout:
        """Build the GASPI_ERR_TIMEOUT exception and account for it."""
        inj = self.cluster.injector
        if inj is not None:
            inj.stats.gaspi_timeouts += 1
            inj.report.record(self.engine.now, "gaspi", "timeout",
                              rank=self.rank, op=op, queue=queue, seg=seg,
                              pending=pending)
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("faults", "gaspi_timeout", self.engine.now,
                       rank=self.rank, op=op, queue=queue, pending=pending)
        where = f" queue {queue}" if queue is not None else (
            f" segment {seg}" if seg is not None else "")
        return GaspiTimeout(
            f"rank {self.rank}: {op}{where} timed out after {timeout:.6g}s "
            f"({pending} pending)",
            rank=self.rank, queue=queue, op=op, timeout=timeout, pending=pending,
        )

    def _check_dest(self, dest: Optional[int]) -> int:
        if dest is None or not 0 <= dest < self.context.n_ranks:
            raise GaspiError(f"bad destination rank {dest!r}")
        return dest

    def _poll_backoff(self) -> float:
        # blocking legacy waits poll at ~1µs granularity
        return 1e-6

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GaspiRank {self.rank}/{self.context.n_ranks}>"
