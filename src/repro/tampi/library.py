"""The Task-Aware MPI library (paper §II-C), non-blocking mode.

``TAMPI_Iwait`` binds an MPI request to the calling task through the
external events API: the function returns immediately; the task may finish
executing but will not *complete* (and release its dependencies) until the
request finalizes. A transparent polling task periodically calls
``MPI_Testsome`` on all bound requests — **under the MPI global lock**,
which is precisely where the paper finds the contention that limits TAMPI
at fine granularity (§VI-C): with many communication tasks posting
``MPI_Isend``/``MPI_Irecv`` concurrently, the per-call lock plus the
testsome hold (growing with the number of in-flight requests) serialize.

Only the non-blocking (``TAMPI_Iwait``) mode is implemented; the paper's
evaluation uses exactly this mode for the hybrid MPI+OmpSs-2 variants. The
polling mechanism is the paper's §V-B spawned task (the authors modified
TAMPI the same way for a fair comparison).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.faults.plan import RecoveryPolicy
from repro.faults.report import FaultAbort
from repro.mpi.comm import MPIRank
from repro.mpi.requests import Request
from repro.tasking.polling import PollableWork, spawn_polling_service
from repro.tasking.runtime import Runtime, TaskingError
from repro.tasking.task import Task


class TAMPI:
    """Per-rank TAMPI instance binding a tasking runtime to an MPI rank.

    Parameters
    ----------
    runtime:
        The rank's tasking runtime.
    mpi_rank:
        The rank's simulated MPI process.
    poll_period_us:
        Polling-task period in microseconds (paper §VI tunes 150µs on
        Marenostrum4, a dedicated core — 0µs — on CTE-AMD).
    recovery:
        Optional :class:`repro.faults.RecoveryPolicy`. MPI requests are
        two-sided, so there is nothing TAMPI can unilaterally re-submit;
        a bound request still pending after ``op_timeout`` is dropped from
        the poll set and its task event released (or, with
        ``on_exhaustion="abort"``, the poller raises
        :class:`~repro.faults.FaultAbort`).
    """

    def __init__(self, runtime: Runtime, mpi_rank: MPIRank, poll_period_us: float = 150.0,
                 recovery: Optional[RecoveryPolicy] = None):
        self.runtime = runtime
        self.mpi = mpi_rank
        self.poll_period_us = poll_period_us
        self.recovery = recovery
        #: (request, owning task, registered-from-onready, registered-at)
        self._pending: List[Tuple[Request, Task, bool, float]] = []
        self.work = PollableWork(runtime.engine)
        self.stats_iwaits = 0
        self.stats_completed = 0
        self.stats_timeouts = 0
        self._poller = spawn_polling_service(
            runtime, self._poll, poll_period_us, self.work,
            label="tampi.poll",
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def iwait(self, request: Request) -> None:
        """``TAMPI_Iwait``: bind ``request`` to the calling task.

        Must be called from a task body (or an ``onready`` callback, in
        which case the event delays execution instead of completion).
        Non-blocking and asynchronous: it never reports whether the
        operation already finished (paper §II-C).
        """
        task = self.runtime.current_task
        if task is None:
            raise TaskingError("TAMPI_Iwait called outside a task")
        task.add_event(1)
        self._pending.append((request, task, task._in_onready, self.runtime.engine.now))
        self.work.notify_work(1)
        self.stats_iwaits += 1

    def iwaitall(self, requests) -> None:
        """``TAMPI_Iwaitall`` over several requests."""
        for r in requests:
            self.iwait(r)

    # ------------------------------------------------------------------
    # polling task body (transparent to the application)
    # ------------------------------------------------------------------
    def _poll(self) -> None:
        if not self._pending:
            return
        reqs = [p[0] for p in self._pending]
        # holds the MPI global lock; under contention the *detection* of
        # completions is pushed out to the call's end (§VI-C)
        end, wait, done_idx = self.mpi.testsome(reqs)
        if not done_idx:
            if self.recovery is not None:
                self._check_timeouts()
            return
        done = set(done_idx)
        tr = self.runtime.engine.tracer
        completed: List[Tuple[Task, bool]] = []
        still: List[Tuple[Request, Task, bool, float]] = []
        for i, (req, task, is_pre, registered_at) in enumerate(self._pending):
            if i in done:
                completed.append((task, is_pre))
                self.stats_completed += 1
                if tr.enabled:
                    # iwait registration -> completion detection at the
                    # call's end (includes the poller's lock wait, §VI-C)
                    tr.iwait_pending(self.mpi.rank, task, req, registered_at,
                                     end, wait)
            else:
                still.append((req, task, is_pre, registered_at))
        self._pending = still
        self.work.retire(len(done))
        if wait <= 0.0:
            self._fulfill(completed)
        else:
            ev = self.runtime.engine.event()
            ev.add_callback(lambda _ev: self._fulfill(completed))
            ev.succeed(delay=end - self.runtime.engine.now)
        if self.recovery is not None:
            self._check_timeouts()

    def _check_timeouts(self) -> None:
        """Release (or abort on) requests pending longer than the recovery
        policy's op_timeout — the TAMPI side of the fault model."""
        now = self.runtime.engine.now
        policy = self.recovery
        timed_out = [p for p in self._pending if now - p[3] > policy.op_timeout]
        if not timed_out:
            return
        inj = self.mpi.cluster.injector
        if policy.on_exhaustion == "abort":
            req, task, _is_pre, registered_at = timed_out[0]
            report = inj.report if inj is not None else None
            if inj is not None:
                inj.stats.tampi_timeouts += 1
            raise FaultAbort(
                f"tampi rank {self.mpi.rank}: request tag={req.tag} "
                f"pending {now - registered_at:.6g}s (> {policy.op_timeout:.6g}s)",
                report=report, rank=self.mpi.rank, op=req.kind,
            )
        self._pending = [p for p in self._pending if now - p[3] <= policy.op_timeout]
        tr = self.runtime.engine.tracer
        for req, task, is_pre, registered_at in timed_out:
            self.stats_timeouts += 1
            if inj is not None:
                inj.stats.tampi_timeouts += 1
                inj.report.record(now, "tampi", "timeout", rank=self.mpi.rank,
                                  req_kind=req.kind, tag=req.tag,
                                  pending_s=now - registered_at)
            if tr.enabled:
                tr.instant("faults", "tampi_timeout", now, rank=self.mpi.rank,
                           kind=req.kind, tag=req.tag)
            if is_pre:
                task.fulfill_pre_event(1)
            else:
                task.fulfill_event(1)
        self.work.retire(len(timed_out))

    def _fulfill(self, completed: List[Tuple[Task, bool]]) -> None:
        for task, is_pre in completed:
            if is_pre:
                task.fulfill_pre_event(1)
            else:
                task.fulfill_event(1)

    @property
    def pending_count(self) -> int:
        return len(self._pending)
