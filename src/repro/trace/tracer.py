"""The tracer core: typed records, the null tracer and the fan-out.

Every observer of a run is a :class:`Tracer` installed as
``engine.tracer``: a recording :class:`Tracer`, the ``perf`` fold
(:class:`repro.perf.PerfTracer`) or the correctness checkers
(:class:`repro.analysis.AnalysisPipeline`); :class:`FanOut` puts two of
them behind the one attribute. Design constraints (mirroring Extrae's):

* **One branch when nothing observes.** Every instrumentation site in the
  stack is written as ``tr = engine.tracer; if tr.enabled: tr.<emit>(...)``
  — with the process-wide :data:`NULL_TRACER` installed (the default), the
  per-site cost is one attribute read and a falsy branch.
* **Deterministic.** Records carry only simulated time and model state —
  never wall-clock or object ids — so identical seeds produce identical
  traces (asserted by ``tests/test_determinism.py``).
* **Passive.** Observing never schedules events, charges CPU, or otherwise
  perturbs the simulation: an observed run is bit-identical in sim time to
  an unobserved one (``tests/test_observer_lattice.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

#: emits whose base implementation writes a record
RECORDED = ("span", "instant", "counter", "task_submit", "ready_wait",
            "onready_wait", "event_wait", "task_on_core", "task_done",
            "mpi_call", "mpi_block", "iwait_pending", "op_submit",
            "notify_immediate", "op_retired", "notify_fulfilled",
            "gaspi_submit", "notify_arrival", "wire_span", "msg_send",
            "msg_deliver")
#: emits only the correctness checkers read: the base records nothing
UNRECORDED = ("mpi_request", "put_delivered", "notify_delivered",
              "remote_read", "read_resp", "notify_consumed", "local_access",
              "wait_enter", "wait_exit")


def _ignore(*args, **kwargs) -> None:
    """An emit its tracer does not read."""


class TraceRecord(NamedTuple):
    """One trace record.

    ``kind`` is ``"span"`` (an interval ``[t0, t1]``), ``"instant"`` (a
    point, ``t1 == t0``), or ``"counter"`` (a sampled value, stored in
    ``args["value"]``). ``rank`` identifies the process lane (an int rank,
    a runtime name, or ``None`` for global records) and ``lane`` the thread
    lane within it (e.g. a worker core).
    """

    kind: str
    category: str
    name: str
    rank: object
    lane: Optional[str]
    t0: float
    t1: float
    args: Dict[str, object]


class Tracer:
    """Collects :class:`TraceRecord` instances from the instrumented stack.

    Parameters
    ----------
    engine_events:
        Also record one instant per fired DES event (very verbose; off by
        default — the engine's periodic progress records are usually what
        you want).
    progress_every:
        Emit an engine progress span + queue-depth counter every N fired
        events (the ``sim`` category's timeline). ``None`` disables.
    """

    enabled = True
    #: the emits this tracer acts on: every other one is a no-op here,
    #: and a :class:`FanOut` does not call it
    reads = frozenset(RECORDED)

    def __init__(self, engine_events: bool = False,
                 progress_every: Optional[int] = 10_000):
        if progress_every is not None and progress_every < 1:
            raise ValueError("progress_every must be >= 1 or None")
        self.engine_events = engine_events
        self.progress_every = progress_every
        for name in RECORDED:
            if name not in self.reads:
                setattr(self, name, _ignore)
        self.records: List[TraceRecord] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, category: str, name: str, t0: float, t1: float,
             rank: object = None, lane: Optional[str] = None, **args) -> None:
        """Record a completed interval ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError(f"span {category}/{name}: t1={t1} < t0={t0}")
        self.records.append(
            TraceRecord("span", category, name, rank, lane, t0, t1, args)
        )

    def instant(self, category: str, name: str, t: float,
                rank: object = None, lane: Optional[str] = None, **args) -> None:
        """Record a point occurrence at time ``t``."""
        self.records.append(
            TraceRecord("instant", category, name, rank, lane, t, t, args)
        )

    def counter(self, category: str, name: str, t: float, value: float,
                rank: object = None) -> None:
        """Record a sampled counter value at time ``t``."""
        self.records.append(
            TraceRecord("counter", category, name, rank, None, t, t,
                        {"value": value})
        )

    # typed emits (every site that fires once per task or per message):
    # the base implementation *is* the generic record; a subclass may read
    # the objects' slots instead
    def task_submit(self, runtime, task, preds) -> None:
        """``task`` was submitted now; ``preds`` are the tasks it waits on."""
        self.instant("tasking", "task_submit", runtime.engine.now,
                     rank=runtime.name, task=task.label, uid=task.uid,
                     preds=tuple(p.uid for p in preds))

    def ready_wait(self, worker, task) -> None:
        """``task`` starts on ``worker`` now, after waiting since ready."""
        self.span("tasking", "ready_wait", task.ready_at, worker.engine.now,
                  rank=worker.runtime.name, lane=worker.lane,
                  task=task.label, uid=task.uid)

    def onready_wait(self, runtime, task, t0: float) -> None:
        """``task`` is ready now; its onready events held it since ``t0``."""
        self.span("tasking", "onready_wait", t0, runtime.engine.now,
                  rank=runtime.name, task=task.label, uid=task.uid)

    def event_wait(self, runtime, task) -> None:
        """External events held ``task``'s completion past its body."""
        self.span("tasking", "event_wait", task.finished_at,
                  task.completed_at, rank=runtime.name, task=task.label,
                  uid=task.uid)

    def task_on_core(self, worker, task, t0: float, outcome: str) -> None:
        """One on-core interval of ``task`` on ``worker``, ending now."""
        self.span("tasking", task.label, t0, worker.engine.now,
                  rank=worker.runtime.name, lane=worker.lane,
                  uid=task.uid, outcome=outcome)

    def task_done(self, runtime, task) -> None:
        """``task`` completed now (body finished, events fulfilled)."""
        self.instant("tasking", "task_done", runtime.engine.now,
                     rank=runtime.name, task=task.label, uid=task.uid,
                     created=task.created_at, ready=task.ready_at,
                     started=task.started_at, finished=task.finished_at,
                     cpu=task.cpu_time)

    def mpi_call(self, rank: int, op: str, t0: float, t1: float,
                 wait: float) -> None:
        """One MPI library call on ``rank`` from ``t0`` to ``t1``: lock
        ``wait`` plus hold."""
        self.span("mpi", op, t0, t1, rank=rank, wait=wait)

    def iwait_pending(self, rank: int, task, req, t0: float, t1: float,
                      wait: float) -> None:
        """TAMPI detected ``req`` (bound to ``task`` since ``t0``) at the end
        ``t1`` of a Testsome that waited ``wait`` for the lock."""
        self.span("tampi", "iwait.pending", t0, t1, rank=rank,
                  task=task.label, uid=task.uid, kind=req.kind,
                  peer=req.peer, tag=req.tag, sent_at=req.sent_at,
                  lock_wait=wait)

    def op_submit(self, rank: int, task, op: str, params: dict,
                  t: float) -> None:
        """``task`` posted a notifying TAGASPI operation."""
        self.instant("tagaspi", "op_submit", t, rank=rank, uid=task.uid,
                     op=op, dest=params.get("dest"),
                     seg=params.get("remote_seg"),
                     notif_id=params.get("notif_id"))

    def notify_immediate(self, rank: int, task, seg: int, notif_id: int,
                         t: float) -> None:
        """``task``'s notification wait found it already arrived."""
        self.instant("tagaspi", "notify_immediate", t, rank=rank, seg=seg,
                     notif_id=notif_id, uid=task.uid)

    def op_retired(self, rank: int, req, queue: int, uid, now: float) -> None:
        """The TAGASPI poller retired ``req`` now: its submit-to-completion
        span and, when detection came later, the detection delay."""
        self.span("tagaspi", f"{req.op}.inflight", req.submitted_at,
                  req.done_at, rank=rank, queue=queue, uid=uid)
        if now > req.done_at:
            self.span("tagaspi", f"{req.op}.detect", req.done_at, now,
                      rank=rank, queue=queue, uid=uid)

    def notify_fulfilled(self, rank: int, pending, t: float) -> None:
        """The TAGASPI poller found ``pending``'s notification."""
        self.instant("tagaspi", "notify_fulfilled", t, rank=rank,
                     seg=pending.seg_id, notif_id=pending.notif_id,
                     uid=pending.task.uid,
                     registered_at=pending.registered_at)

    def mpi_block(self, rank: int, op: str, req, t0: float,
                  t1: float) -> None:
        """``rank`` was blocked in MPI ``op`` on ``req`` from ``t0`` to
        ``t1``."""
        self.span("mpi", op + ".block", t0, t1, rank=rank, kind=req.kind,
                  peer=req.peer, tag=req.tag, sent_at=req.sent_at)

    def gaspi_submit(self, rank: int, operation: str, t0: float, t1: float,
                     wait: float, queue: int, count: int, depth: int,
                     local_seg=None, local_off=0, dest=None, remote_seg=None,
                     remote_off=0, notif_id=None) -> None:
        """A GASPI submission from API entry ``t0`` to the queue's release
        ``t1`` after ``wait`` for it, then the queue's depth; the rest is
        the operation's addressing."""
        self.span("gaspi", operation, t0, t1, rank=rank, queue=queue,
                  count=count, wait=wait)
        self.counter("gaspi", f"q{queue}.depth", t1, float(depth), rank=rank)

    def notify_arrival(self, rank: int, msg, t: float) -> None:
        """``msg``'s notification landed in ``rank``'s segment now."""
        self.instant("gaspi", "notify_arrival", t, rank=rank,
                     src=msg.src_rank, seg=msg.meta["remote_seg"],
                     notif_id=msg.meta["notif_id"], sent_at=msg.injected_at)

    def wire_span(self, msg, t0: float, t1: float, intra: bool,
                  local_done: float) -> None:
        """``msg`` on the wire from ``t0`` to its arrival ``t1``."""
        self.span("net", f"{msg.protocol}.{msg.kind}", t0, t1,
                  rank=msg.src_rank, dst=msg.dst_rank, nbytes=msg.nbytes,
                  intra=intra, local_done=local_done)

    def msg_send(self, msg, eid: int, t: float) -> None:
        """``msg`` was injected at ``t``; ``eid`` is its cluster-local
        edge id, which the matching ``msg_deliver`` instant repeats."""
        meta = msg.meta or {}
        extra = {}
        if "tag" in meta:
            extra["tag"] = meta["tag"]
        if "notif_id" in meta:
            extra["notif_id"] = meta["notif_id"]
        self.instant("net", "msg_send", t, rank=msg.src_rank,
                     dst=msg.dst_rank, protocol=msg.protocol, kind=msg.kind,
                     nbytes=msg.nbytes, eid=eid, **extra)

    def msg_deliver(self, msg, eid: int, t: float) -> None:
        """``msg`` (edge ``eid``) was delivered at ``t``."""
        self.instant("net", "msg_deliver", t, rank=msg.dst_rank,
                     src=msg.src_rank, protocol=msg.protocol, kind=msg.kind,
                     eid=eid)

    # the emits only the checkers read record nothing here; their
    # signatures are repro.analysis.AnalysisPipeline's
    mpi_request = put_delivered = notify_delivered = remote_read = \
        read_resp = notify_consumed = local_access = wait_enter = \
        wait_exit = staticmethod(_ignore)

    def deadlock_report(self) -> str:
        """Wait-for diagnosis of the blocked state ("" when not checked)."""
        return ""

    # ------------------------------------------------------------------
    # queries (used by tests, the text exporter, and the CLI)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def spans(self, category: Optional[str] = None) -> Iterator[TraceRecord]:
        for rec in self.records:
            if rec.kind == "span" and (category is None or rec.category == category):
                yield rec

    def categories(self) -> List[str]:
        """Distinct record categories, in first-appearance order."""
        seen: Dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.category, None)
        return list(seen)


class _NullTracer(Tracer):
    """The process-wide disabled tracer: records nothing, ever.

    Instrumentation sites check :attr:`enabled` before building any record
    arguments, so with this installed tracing costs one attribute read per
    site. It reads no emit, so each is a no-op: a second line of defence
    for call sites that skip the guard.
    """

    enabled = False
    reads = frozenset()

    def __init__(self):
        super().__init__(engine_events=False, progress_every=None)


def _both(first, second):
    def emit(*args, **kwargs) -> None:
        first(*args, **kwargs)
        second(*args, **kwargs)
    return emit


class FanOut(Tracer):
    """Two observers behind one ``engine.tracer``. Each emit a child reads
    is bound once, here: straight to that child's method when only one
    child reads it, to a call of both when both do."""

    def __init__(self, first: Tracer, second: Tracer):
        self.children = (first, second)
        self.reads = first.reads | second.reads
        super().__init__(first.engine_events or second.engine_events,
                         first.progress_every or second.progress_every)
        for name in self.reads:
            fns = [getattr(c, name) for c in self.children if name in c.reads]
            setattr(self, name, fns[0] if len(fns) == 1 else _both(*fns))

    def deadlock_report(self) -> str:
        return "\n".join(filter(None, (c.deadlock_report()
                                       for c in self.children)))


#: Process-wide null tracer installed on every engine by default.
NULL_TRACER = _NullTracer()
