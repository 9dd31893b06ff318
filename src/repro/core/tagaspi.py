"""The TAGASPI library (paper §IV).

Every operation is call-shaped (returns immediately), mirrors a GASPI RMA
primitive, and binds the calling task's completion to the operation's
local finalization via the external events API — the paper's Fig. 7
implementation, with the task object itself playing the role of the opaque
event-counter pointer passed as the low-level operation tag.

The transparent polling task (§IV-D, §V-B) does two things per pass:

1. ``gaspi_request_wait`` on every queue (non-blocking) and fulfill one
   event per completed low-level request, using the request's tag to find
   the owning task;
2. drain the MPSC queue of freshly-registered pending notifications into
   the intrusive list and test each one against the segment's notification
   table, storing the notified value and fulfilling the waiter's event on
   arrival.

Calls made from an ``onready`` callback register *execution-delaying*
events instead (paper §V-A) — the mechanism behind the ack-protected
writer tasks of Fig. 8.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.mpsc import MPSCQueue
from repro.core.pool import ObjectPool, PendingNotification
from repro.faults.plan import RecoveryPolicy
from repro.faults.report import FaultAbort
from repro.gaspi.operations import (
    GASPI_OP_NOTIFY,
    GASPI_OP_READ,
    GASPI_OP_WRITE,
    GASPI_OP_WRITE_NOTIFY,
    low_level_requests,
)
from repro.gaspi.proc import GaspiRank
from repro.sim.context import charge_current
from repro.tasking.polling import PollableWork, spawn_polling_service
from repro.tasking.runtime import Runtime, TaskingError
from repro.tasking.task import Task

#: max low-level requests harvested per queue per polling pass (MAX_REQS
#: in the paper's Fig. 7)
MAX_REQS = 64

#: CPU cost of testing one pending notification in the poller
NOTIF_TEST_COST = 0.03e-6


class _TrackedOp:
    """Recovery bookkeeping for one submitted operation (recovery mode
    only): enough to purge its low-level requests and re-submit it."""

    __slots__ = ("op", "queue", "params", "task", "is_pre", "nreq",
                 "remaining", "reqs", "deadline", "retries")

    def __init__(self, op, queue, params, task, is_pre, nreq, deadline):
        self.op = op
        self.queue = queue
        self.params = params
        self.task = task
        self.is_pre = is_pre
        self.nreq = nreq
        #: low-level requests not yet harvested
        self.remaining = nreq
        self.reqs: List = []
        self.deadline = deadline
        self.retries = 0


class TAGASPI:
    """Per-rank TAGASPI instance binding a tasking runtime to a GASPI rank.

    Parameters
    ----------
    runtime:
        The rank's tasking runtime.
    gaspi_rank:
        The rank's simulated GASPI process.
    poll_period_us:
        Polling-task period in microseconds (paper §VI: 150µs for
        Gauss–Seidel / miniAMR, 50µs for Streaming).
    recovery:
        Optional :class:`repro.faults.RecoveryPolicy`. When set, every
        task-bound operation is deadline-tracked: an operation that is not
        locally complete within ``op_timeout`` is treated as a
        ``GASPI_ERR_TIMEOUT``, its low-level requests are purged, and it
        is re-submitted on the next queue (bounded retries with backoff).
        On exhaustion the policy either *releases* the task's events
        (degraded but live) or *aborts* with a structured
        :class:`~repro.faults.FaultAbort`.
    """

    def __init__(self, runtime: Runtime, gaspi_rank: GaspiRank,
                 poll_period_us: float = 150.0,
                 recovery: Optional[RecoveryPolicy] = None):
        self.runtime = runtime
        self.gaspi = gaspi_rank
        self.poll_period_us = poll_period_us
        self.recovery = recovery
        self.mpsc = MPSCQueue(runtime.engine)
        self.pool = ObjectPool(runtime.engine)
        #: the poller's working set of pending notifications (stands in for
        #: the Boost intrusive list of §IV-D)
        self._pending_notifs: List[PendingNotification] = []
        #: deadline-tracked operations (recovery mode only)
        self._tracked: List[_TrackedOp] = []
        self.work = PollableWork(runtime.engine)
        self.stats_ops = 0
        self.stats_notif_waits = 0
        self.stats_notif_immediate = 0
        self.stats_resubmits = 0
        self.stats_releases = 0
        self._poller = spawn_polling_service(
            runtime, self.poll_requests, poll_period_us, self.work,
            label="tagaspi.poll",
        )

    # ------------------------------------------------------------------
    # RMA operations (task-aware variants of the GASPI primitives)
    # ------------------------------------------------------------------
    def write_notify(self, local_seg: int, local_off: int, dest: int,
                     remote_seg: int, remote_off: int, count: int,
                     notif_id: int, notif_val: int, queue: int) -> None:
        """``tagaspi_write_notify`` (paper Figs. 3 and 7): one-sided write
        plus notification-after-data; binds two events (write + notify
        low-level requests) to the calling task."""
        self._submit(GASPI_OP_WRITE_NOTIFY, queue, local_seg=local_seg,
                     local_off=local_off, dest=dest, remote_seg=remote_seg,
                     remote_off=remote_off, count=count, notif_id=notif_id,
                     notif_val=notif_val)

    def write(self, local_seg: int, local_off: int, dest: int,
              remote_seg: int, remote_off: int, count: int, queue: int) -> None:
        """``tagaspi_write``: plain one-sided write; binds one event."""
        self._submit(GASPI_OP_WRITE, queue, local_seg=local_seg,
                     local_off=local_off, dest=dest, remote_seg=remote_seg,
                     remote_off=remote_off, count=count)

    def read(self, local_seg: int, local_off: int, dest: int,
             remote_seg: int, remote_off: int, count: int, queue: int) -> None:
        """``tagaspi_read``: one-sided read into the local segment; the
        local buffer is valid only for successor tasks (the task should
        declare an *out* dependency on it, paper §IV-A)."""
        self._submit(GASPI_OP_READ, queue, local_seg=local_seg,
                     local_off=local_off, dest=dest, remote_seg=remote_seg,
                     remote_off=remote_off, count=count)

    def notify(self, dest: int, remote_seg: int, notif_id: int,
               notif_val: int, queue: int) -> None:
        """``tagaspi_notify``: data-free remote notification — the *ack*
        of the iterative producer-consumer pattern (§IV-B); binds one
        event when called from a task, and is also callable from plain
        (non-task) context during setup."""
        self._submit(GASPI_OP_NOTIFY, queue, dest=dest, remote_seg=remote_seg,
                     notif_id=notif_id, notif_val=notif_val, required_task=False)

    def _submit(self, op: str, queue: int, required_task: bool = True, **params) -> None:
        task = self.runtime.current_task
        if task is None and required_task:
            raise TaskingError(f"tagaspi_{op} called outside a task")
        nreq = low_level_requests(op)
        rec = None
        if task is not None:
            task.add_event(nreq)
            if self.recovery is not None:
                rec = _TrackedOp(op, queue, dict(params), task,
                                 task._in_onready, nreq,
                                 self.runtime.engine.now + self.recovery.op_timeout)
                self._tracked.append(rec)
                tag = (task, task._in_onready, rec)
            else:
                tag = (task, task._in_onready)
        else:
            tag = None
        reqs = self.gaspi.operation_submit(op, tag, queue, **params)
        if rec is not None:
            rec.reqs = reqs
        if task is not None and params.get("notif_id") is not None:
            tr = self.runtime.engine.tracer
            if tr.enabled:
                # producer-side causal edge: which task posted which
                # notification (repro.perf follows it across ranks)
                tr.op_submit(self.gaspi.rank, task, op, params,
                             self.runtime.engine.now)
        self.work.notify_work(nreq)
        self.stats_ops += 1

    # ------------------------------------------------------------------
    # notification waiting
    # ------------------------------------------------------------------
    def notify_iwait(self, seg_id: int, notif_id: int,
                     out: Optional[list] = None) -> None:
        """``tagaspi_notify_iwait`` (paper Fig. 4): asynchronously wait for
        one notification. If it already arrived, consume it immediately
        (no event); otherwise bind one event and hand the pending object
        to the poller. ``out`` is an optional single-slot mutable holder
        for the notified value (the paper's pointer parameter)."""
        task = self.runtime.current_task
        if task is None:
            raise TaskingError("tagaspi_notify_iwait called outside a task")
        val = self.gaspi.notify_test(seg_id, notif_id)
        if val is not None:
            if out is not None:
                out[0] = val
            self.stats_notif_immediate += 1
            tr = self.runtime.engine.tracer
            if tr.enabled:
                tr.notify_immediate(self.gaspi.rank, task, seg_id, notif_id,
                                    self.runtime.engine.now)
            return
        task.add_event(1)
        obj = self.pool.acquire().assign(seg_id, notif_id, out, task,
                                         task._in_onready,
                                         self.runtime.engine.now)
        self.mpsc.push(obj)
        self.work.notify_work(1)
        self.stats_notif_waits += 1

    def notify_iwaitall(self, seg_id: int, begin: int, count: int,
                        outs: Optional[Sequence[list]] = None) -> None:
        """``tagaspi_notify_iwaitall``: wait a consecutive range of
        notification ids [begin, begin+count).

        ``outs``, when given, must provide one slot per notification; a
        short sequence is rejected *before* any event is bound (failing
        midway would leave the earlier ids already registered).
        """
        if outs is not None and len(outs) < count:
            raise TaskingError(
                f"tagaspi_notify_iwaitall: outs has {len(outs)} slot(s) "
                f"for {count} notifications")
        for i in range(count):
            self.notify_iwait(seg_id, begin + i, None if outs is None else outs[i])

    # ------------------------------------------------------------------
    # polling-task body (paper Fig. 7, pollRequests)
    # ------------------------------------------------------------------
    def poll_requests(self) -> None:
        eng = self.runtime.engine
        tr = eng.tracer
        now = eng.now
        # (1) local completions per queue via the §IV-C extension
        retired = 0
        for q in range(len(self.gaspi.queues)):
            for req in self.gaspi.request_wait(q, MAX_REQS):
                if req.tag is not None:
                    # tag is (task, is_pre) or, in recovery mode,
                    # (task, is_pre, tracked_op)
                    task, is_pre = req.tag[0], req.tag[1]
                    if len(req.tag) > 2:
                        req.tag[2].remaining -= 1
                    if is_pre:
                        task.fulfill_pre_event(1)
                    else:
                        task.fulfill_event(1)
                if tr.enabled:
                    uid = req.tag[0].uid if req.tag is not None else None
                    # submit -> local completion, plus the poller's
                    # detection delay (done_at -> this pass)
                    tr.op_retired(self.gaspi.rank, req, q, uid, now)
                retired += 1
        # (2) drain freshly registered pending notifications, then test all
        fresh = self.mpsc.drain()
        if fresh:
            self._pending_notifs.extend(fresh)
        if self._pending_notifs:
            charge_current(eng, NOTIF_TEST_COST * len(self._pending_notifs))
            still: List[PendingNotification] = []
            for obj in self._pending_notifs:
                val = self.gaspi.notify_test(obj.seg_id, obj.notif_id)
                if val is None:
                    still.append(obj)
                    continue
                if obj.out is not None:
                    obj.out[0] = val
                if obj.is_pre:
                    obj.task.fulfill_pre_event(1)
                else:
                    obj.task.fulfill_event(1)
                if tr.enabled:
                    tr.notify_fulfilled(self.gaspi.rank, obj, now)
                self.pool.release(obj)
                retired += 1
            self._pending_notifs = still
            if tr.enabled:
                tr.counter("tagaspi", "pending_notifications", now,
                           float(len(self._pending_notifs)),
                           rank=self.gaspi.rank)
        if retired:
            self.work.retire(retired)
        if self.recovery is not None and (self._tracked or self._pending_notifs):
            self._check_recovery(eng.now)

    # ------------------------------------------------------------------
    # timeout recovery (GASPI_ERR_TIMEOUT handling, repro.faults)
    # ------------------------------------------------------------------
    def _check_recovery(self, now: float) -> None:
        """Deadline-check the tracked operations (one pass per poll).

        A timed-out operation is purged from its queue and re-submitted on
        the *next* queue (failing over the channel, as a real GASPI
        recovery path would after ``gaspi_queue_purge``), with the
        deadline stretched by the policy's backoff per retry. Partially
        completed operations are never re-submitted — their surviving
        requests are purged and the missing events released.
        """
        policy = self.recovery
        inj = self.gaspi.cluster.injector
        keep: List[_TrackedOp] = []
        for idx, rec in enumerate(self._tracked):
            if rec.remaining <= 0:
                continue  # completed since last pass
            if now < rec.deadline:
                keep.append(rec)
                continue
            self._account_timeout(rec, inj, now)
            if rec.retries < policy.max_retries and rec.remaining == rec.nreq:
                self.gaspi.purge_requests(rec.queue, rec.reqs)
                rec.retries += 1
                rec.queue = (rec.queue + 1) % len(self.gaspi.queues)
                rec.deadline = now + policy.op_timeout * (
                    policy.backoff ** rec.retries)
                tag = (rec.task, rec.is_pre, rec)
                rec.reqs = self.gaspi.operation_submit(
                    rec.op, tag, rec.queue, **rec.params)
                self.stats_resubmits += 1
                if inj is not None:
                    inj.stats.resubmits += 1
                    inj.report.record(now, "tagaspi", "resubmit",
                                      rank=self.gaspi.rank, op=rec.op,
                                      queue=rec.queue, retry=rec.retries)
                keep.append(rec)
                continue
            # exhausted (or partially completed): give up on this op
            self.gaspi.purge_requests(rec.queue, rec.reqs)
            if inj is not None:
                inj.report.record(now, "tagaspi", "exhausted",
                                  rank=self.gaspi.rank, op=rec.op,
                                  retries=rec.retries,
                                  policy=policy.on_exhaustion)
            if policy.on_exhaustion == "abort":
                # Leave the tracked list consistent for a caller that
                # catches the abort and keeps polling: already-scanned
                # records are in ``keep``; only the not-yet-scanned tail is
                # appended (re-adding the full list would duplicate the
                # kept entries and re-submit them on every later pass).
                self._tracked = keep + [r for r in self._tracked[idx + 1:]
                                        if r.remaining > 0]
                report = inj.report if inj is not None else None
                raise FaultAbort(
                    f"tagaspi rank {self.gaspi.rank}: {rec.op} gave up "
                    f"after {rec.retries} retries",
                    report=report, rank=self.gaspi.rank, op=rec.op,
                )
            # release: fulfill the task's missing events so the graph
            # drains — degraded data, but no deadlock
            if rec.is_pre:
                rec.task.fulfill_pre_event(rec.remaining)
            else:
                rec.task.fulfill_event(rec.remaining)
            self.work.retire(rec.remaining)
            rec.remaining = 0
            self.stats_releases += 1
            if inj is not None:
                inj.stats.released += 1
        self._tracked = keep
        self._check_notification_deadlines(now, policy, inj)

    def _check_notification_deadlines(self, now: float, policy, inj) -> None:
        """Deadline-check the pending notification waits.

        A notification that never arrives (the producer died, or its
        write_notify was permanently lost) has nothing the *receiver* can
        re-submit, so exhaustion semantics apply directly: release the
        waiting task's event (degraded data, graph drains) or abort."""
        expired = [o for o in self._pending_notifs
                   if now - o.registered_at > policy.op_timeout]
        if not expired:
            return
        tr = self.runtime.engine.tracer
        gone = {o.serial for o in expired}
        self._pending_notifs = [o for o in self._pending_notifs
                                if o.serial not in gone]
        if policy.on_exhaustion == "abort":
            # The expired waits are dropped *before* raising so a caller
            # that catches the abort and keeps polling does not re-abort
            # on the same stale entries; their work units are retired to
            # keep the pollable-work accounting consistent.
            obj = expired[0]
            self.work.retire(len(expired))
            for o in expired:
                self.pool.release(o)
            if inj is not None:
                inj.stats.gaspi_timeouts += len(expired)
            report = inj.report if inj is not None else None
            raise FaultAbort(
                f"tagaspi rank {self.gaspi.rank}: notification "
                f"(seg {obj.seg_id}, id {obj.notif_id}) never arrived "
                f"(> {policy.op_timeout:.6g}s)",
                report=report, rank=self.gaspi.rank, op="notify_iwait",
            )
        for obj in expired:
            if inj is not None:
                inj.stats.gaspi_timeouts += 1
                inj.stats.released += 1
                inj.report.record(now, "tagaspi", "notify_timeout",
                                  rank=self.gaspi.rank, seg=obj.seg_id,
                                  notif_id=obj.notif_id,
                                  pending_s=now - obj.registered_at)
            if tr.enabled:
                tr.instant("faults", "notify_timeout", now,
                           rank=self.gaspi.rank, seg=obj.seg_id,
                           notif_id=obj.notif_id)
            if obj.is_pre:
                obj.task.fulfill_pre_event(1)
            else:
                obj.task.fulfill_event(1)
            self.pool.release(obj)
            self.stats_releases += 1
        self.work.retire(len(expired))

    def _account_timeout(self, rec: _TrackedOp, inj, now: float) -> None:
        if inj is not None:
            inj.stats.gaspi_timeouts += 1
        tr = self.runtime.engine.tracer
        if tr.enabled:
            tr.instant("faults", "op_timeout", now, rank=self.gaspi.rank,
                       op=rec.op, queue=rec.queue, retry=rec.retries)

    @property
    def pending_notification_count(self) -> int:
        return len(self._pending_notifs) + len(self.mpsc)
