"""Normalized performance model folded from trace emits.

The :class:`PerfModel` is the input to every analysis in :mod:`repro.perf`:
it joins the tracer's causal instants (``task_submit``/``task_done`` with
predecessor uids, ``msg_send``/``msg_deliver`` wire edges, GASPI
``notify_arrival`` and TAGASPI ``notify_fulfilled`` completion edges) with
the per-layer spans into per-task and per-rank views.

One builder, two feeds: a :class:`PerfTracer` folds the emits of a running
``perf=True`` job and keeps no records; a recording tracer or an exported
Chrome-trace document (``records_from_chrome``) is replayed through the
same fold, so the CLI analyzes the model the in-process hook does.

Rank normalization: the tasking runtime names ranks ``"rank0"`` (strings)
while the MPI/GASPI/network layers use integer ranks; both are folded onto
the integer rank so a task and its communication land in the same bucket.
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.trace.tracer import TraceRecord, Tracer

_RANK_RE = re.compile(r"^rank ?(\d+)$")


@functools.cache  # a handful of distinct names, asked for once per emit
def norm_rank(rank: object) -> object:
    """Fold ``"rank3"`` / ``"rank 3"`` style names onto the integer rank."""
    if isinstance(rank, str):
        m = _RANK_RE.match(rank)
        if m:
            return int(m.group(1))
    return rank


def records_from_chrome(doc: dict) -> List[TraceRecord]:
    """Reconstruct :class:`TraceRecord` tuples from a Chrome-trace dict.

    The inverse of :func:`repro.trace.exporters.chrome_trace` up to lane
    names (tids map back through the ``thread_name`` metadata) and float
    rounding of the µs timestamps.
    """
    pid_rank: Dict[int, object] = {}
    tid_lane: Dict[Tuple[int, int], str] = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "M":
            continue
        if ev.get("name") == "process_name":
            label = ev["args"]["name"]
            m = _RANK_RE.match(label)
            pid_rank[ev["pid"]] = int(m.group(1)) if m else label
        elif ev.get("name") == "thread_name":
            lane = ev["args"]["name"]
            tid_lane[(ev["pid"], ev["tid"])] = "" if lane == "main" else lane

    records: List[TraceRecord] = []
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph not in ("X", "i", "C"):
            continue
        pid = ev.get("pid")
        rank = pid_rank.get(pid, pid)
        if rank == "global":
            rank = None
        t0 = ev.get("ts", 0.0) * 1e-6
        args = dict(ev.get("args", {}))
        if ph == "X":
            records.append(TraceRecord(
                "span", ev.get("cat", "?"), ev.get("name", "?"), rank,
                tid_lane.get((pid, ev.get("tid", 0)), "") or None,
                t0, t0 + ev.get("dur", 0.0) * 1e-6, args))
        elif ph == "i":
            records.append(TraceRecord(
                "instant", ev.get("cat", "?"), ev.get("name", "?"), rank,
                tid_lane.get((pid, ev.get("tid", 0)), "") or None,
                t0, t0, args))
        else:
            records.append(TraceRecord(
                "counter", ev.get("cat", "?"), ev.get("name", "?"), rank,
                None, t0, t0, args))
    return records


@dataclass(slots=True)
class TaskInfo:
    """One completed task, keyed by (rank, uid)."""

    rank: object
    uid: int
    label: str = "task"
    preds: Tuple[int, ...] = ()
    created: float = 0.0
    ready: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    completed: float = 0.0
    cpu: float = 0.0
    #: TAMPI ``iwait.pending`` spans bound to this task (tuples: most
    #: tasks have none, and share the one empty default)
    mpi_waits: Tuple[TraceRecord, ...] = ()
    #: joined notification waits bound to this task
    notify_waits: Tuple["NotifyWait", ...] = ()


@dataclass(slots=True)
class NotifyWait:
    """One ``tagaspi_notify_iwait`` joined with its wire arrival."""

    rank: object
    seg: object
    notif_id: object
    uid: Optional[int]
    registered_at: float
    fulfilled_at: float
    #: sim time the notification landed in the segment (None if the
    #: arrival instant was not traced, e.g. partial traces)
    arrival_at: Optional[float] = None
    #: injection time at the producer (late-notification root cause)
    sent_at: Optional[float] = None
    immediate: bool = False
    #: producing task (joined from the producer's ``op_submit`` instants)
    producer_rank: object = None
    producer_uid: Optional[int] = None
    #: sim time the producer task submitted the operation
    submit_at: Optional[float] = None


@dataclass
class RankView:
    """Per-rank record buckets for wait-state and efficiency analysis."""

    rank: object
    #: ``mpi`` blocking spans (``wait.block`` / ``waitall.block``)
    blocked: List[TraceRecord] = field(default_factory=list)
    #: all other ``mpi`` library spans (lock wait in ``args["wait"]``)
    mpi_calls: List[TraceRecord] = field(default_factory=list)
    #: ``proc``/``compute`` spans (MPI-only useful work)
    compute: List[TraceRecord] = field(default_factory=list)
    #: ``gaspi`` submission spans (queue wait in ``args["wait"]``)
    gaspi_submits: List[TraceRecord] = field(default_factory=list)
    #: TAGASPI ``*.detect`` spans (poller detection delay)
    detects: List[TraceRecord] = field(default_factory=list)
    #: TAMPI ``iwait.pending`` spans
    iwaits: List[TraceRecord] = field(default_factory=list)
    #: joined notification waits consumed on this rank
    notify_waits: List[NotifyWait] = field(default_factory=list)
    #: distinct worker lanes observed (cores actually used)
    lanes: set = field(default_factory=set)
    #: total task CPU seconds (completed, non-poller tasks)
    task_cpu: float = 0.0


class PerfModel:
    """Joined causal model of one traced run, built as a fold: feed every
    emit in order (:class:`PerfTracer` online, or records replayed), then
    :meth:`finish`. Only the records the analyses read back are kept."""

    def __init__(self) -> None:
        self.tasks: Dict[Tuple[object, int], TaskInfo] = {}
        self.ranks: Dict[object, RankView] = {}
        self.makespan = 0.0
        #: msg_send instants by edge id, and matched deliver times
        self.edges: Dict[int, Tuple[TraceRecord, Optional[float]]] = {}
        self._finished = False
        # what finish() joins: wire instants by edge id, notification
        # instants by (rank, seg, notif_id), each in emission order
        self._sends: Dict[int, TraceRecord] = {}
        self._delivers: Dict[int, float] = {}
        self._arrivals: Dict[tuple, List[TraceRecord]] = {}
        self._consumes: Dict[tuple, List[NotifyWait]] = {}
        self._submits: Dict[tuple, List[TraceRecord]] = {}

    # ------------------------------------------------------------------
    def _rank(self, rank: object) -> RankView:
        rv = self.ranks.get(rank)
        if rv is None:
            rv = self.ranks[rank] = RankView(rank)
        return rv

    def _task(self, rank: object, uid: int) -> TaskInfo:
        key = (rank, uid)
        t = self.tasks.get(key)
        if t is None:
            t = self.tasks[key] = TaskInfo(rank, uid)
        return t

    # ------------------------------------------------------------------
    # the fold: one call per emit, in emission order (a counter is an
    # instant of a category nothing joins: only its time counts)
    def span(self, cat: str, name: str, t0: float, t1: float, rank: object,
             lane: Optional[str], args: Optional[dict]) -> None:
        if t1 > self.makespan:
            self.makespan = t1
        if cat == "tasking":
            if lane and lane[0] == "w":
                self._rank(norm_rank(rank)).lanes.add(lane)
            return
        rec = TraceRecord("span", cat, name, rank, lane, t0, t1, args)
        rank = norm_rank(rank)
        if cat == "mpi":
            rv = self._rank(rank)
            if name in ("wait.block", "waitall.block"):
                rv.blocked.append(rec)
            else:
                rv.mpi_calls.append(rec)
        elif cat == "proc" and name == "compute":
            self._rank(rank).compute.append(rec)
        elif cat == "tampi" and name == "iwait.pending":
            self._rank(rank).iwaits.append(rec)
            uid = args.get("uid")
            if uid is not None:
                self._task(rank, uid).mpi_waits += (rec,)
        elif cat == "tagaspi" and name.endswith(".detect"):
            self._rank(rank).detects.append(rec)
        elif cat == "gaspi":
            self._rank(rank).gaspi_submits.append(rec)

    def instant(self, cat: str, name: str, t: float, rank: object,
                lane: Optional[str], args: Optional[dict]) -> None:
        if t > self.makespan:
            self.makespan = t
        if cat == "tasking" and name == "task_submit":
            ti = self._task(norm_rank(rank), args["uid"])
            ti.label = args.get("task", ti.label)
            ti.preds = tuple(args.get("preds", ()))
            ti.created = t
        elif cat == "tasking" and name == "task_done":
            self.task_done(rank, t, **args)
        elif cat == "net" and name == "msg_send":
            self._sends[args["eid"]] = TraceRecord(
                "instant", cat, name, rank, lane, t, t, args)
        elif cat == "net" and name == "msg_deliver":
            self._delivers[args["eid"]] = t
        elif cat == "gaspi" and name == "notify_arrival":
            key = (norm_rank(rank), args.get("seg"), args.get("notif_id"))
            self._arrivals.setdefault(key, []).append(TraceRecord(
                "instant", cat, name, rank, lane, t, t, args))
        elif cat == "tagaspi" and name == "op_submit":
            key = (norm_rank(args.get("dest")), args.get("seg"),
                   args.get("notif_id"))
            self._submits.setdefault(key, []).append(TraceRecord(
                "instant", cat, name, rank, lane, t, t, args))
        elif cat == "tagaspi" and name in ("notify_fulfilled",
                                           "notify_immediate"):
            nw = NotifyWait(
                norm_rank(rank), args.get("seg"), args.get("notif_id"),
                args.get("uid"), args.get("registered_at", t), t,
                immediate=name == "notify_immediate")
            self._consumes.setdefault(
                (nw.rank, nw.seg, nw.notif_id), []).append(nw)

    def task_done(self, rank: object, t: float, uid: int,
                  task: Optional[str] = None, created: Optional[float] = None,
                  ready: float = 0.0, started: float = 0.0,
                  finished: float = 0.0, cpu: float = 0.0, **_) -> None:
        """The ``tasking/task_done`` instant, its args spelled out."""
        if t > self.makespan:
            self.makespan = t
        ti = self._task(norm_rank(rank), uid)
        if task is not None:
            ti.label = task
        if created is not None:
            ti.created = created
        ti.ready, ti.started, ti.finished = ready, started, finished
        ti.completed = t
        ti.cpu = cpu

    def finish(self) -> "PerfModel":
        """Join what the fold collected, once every record is in."""
        if self._finished:
            return self
        self._finished = True
        # join notification consumption with wire arrivals, FIFO per
        # (rank, seg, notif_id) — ids are reused across iterations and
        # consumed in posting order
        for key, waits in self._consumes.items():
            waits.sort(key=lambda w: w.fulfilled_at)
            arr = sorted(self._arrivals.get(key, ()), key=lambda r: r.t0)
            sub = sorted(self._submits.get(key, ()), key=lambda r: r.t0)
            for i, w in enumerate(waits):
                if i < len(arr):
                    w.arrival_at = arr[i].t0
                    w.sent_at = arr[i].args.get("sent_at")
                if i < len(sub):
                    w.producer_rank = norm_rank(sub[i].rank)
                    w.producer_uid = sub[i].args.get("uid")
                    w.submit_at = sub[i].t0
                if w.uid is not None:
                    self._task(key[0], w.uid).notify_waits += (w,)
                self._rank(key[0]).notify_waits.append(w)

        for eid, rec in self._sends.items():
            self.edges[eid] = (rec, self._delivers.get(eid))
        # wire lookup keyed by the recv side's knowledge of the message:
        # (src, dst, tag, injection time) -> delivery time
        self.wire: Dict[Tuple[object, object, object, float], float] = {}
        for rec, deliver_t in self.edges.values():
            if deliver_t is None or "tag" not in rec.args:
                continue
            self.wire[(norm_rank(rec.rank), norm_rank(rec.args.get("dst")),
                       rec.args["tag"], rec.t0)] = deliver_t

        for t in self.tasks.values():
            if t.completed > 0.0 or t.finished > 0.0:
                self._rank(t.rank).task_cpu += t.cpu

        # per-rank completed tasks by start time (producer lookup: "which
        # task was executing on rank r at time t?")
        self.tasks_by_rank: Dict[object, List[TaskInfo]] = {}
        for t in sorted(self.tasks.values(),
                        key=lambda x: (x.started, x.uid)):
            if t.completed > 0.0:
                self.tasks_by_rank.setdefault(t.rank, []).append(t)
        self._starts_by_rank: Dict[object, List[float]] = {
            r: [x.started for x in ts]
            for r, ts in self.tasks_by_rank.items()}
        return self

    def task_running_at(self, rank: object, t: float) -> Optional["TaskInfo"]:
        """The completed task on ``rank`` whose body covered sim time ``t``
        (latest-starting one when worker lanes overlap); None if idle."""
        tasks = self.tasks_by_rank.get(rank)
        if not tasks:
            return None
        i = bisect.bisect_right(self._starts_by_rank[rank], t) - 1
        while i >= 0:
            if tasks[i].finished >= t - 1e-12:
                return tasks[i]
            i -= 1
        return None

    # ------------------------------------------------------------------
    @property
    def completed_tasks(self) -> List[TaskInfo]:
        return [t for t in self.tasks.values() if t.completed > 0.0]

    def sorted_ranks(self) -> List[object]:
        return sorted(self.ranks, key=lambda r: (not isinstance(r, int), str(r)))

    @property
    def is_tasking(self) -> bool:
        """True when the run used a tasking runtime (hybrid variants)."""
        return any(t.completed > 0.0 for t in self.tasks.values())


class PerfTracer(Tracer):
    """What a ``perf=True`` job with no tracer passed in observes itself
    with: every emit is folded into :attr:`model`; ``records`` stays empty."""

    def __init__(self) -> None:
        super().__init__(progress_every=None)
        self.model = PerfModel()

    def span(self, category, name, t0, t1, rank=None, lane=None, **args):
        if t1 < t0:
            raise ValueError(f"span {category}/{name}: t1={t1} < t0={t0}")
        self.model.span(category, name, t0, t1, rank, lane, args)

    def instant(self, category, name, t, rank=None, lane=None, **args):
        self.model.instant(category, name, t, rank, lane, args)

    def counter(self, category, name, t, value, rank=None):
        self.model.instant("counter", name, t, rank, None, None)

    # the typed emits read the objects' slots: no kwargs dict per task
    def task_on_core(self, worker, task, t0, outcome):
        self.span("tasking", task.label, t0, worker.engine.now,
                  worker.runtime.name, worker.lane)

    def task_done(self, runtime, task):
        self.model.task_done(
            runtime.name, runtime.engine.now, task.uid, task.label,
            task.created_at, task.ready_at, task.started_at,
            task.finished_at, task.cpu_time)


def model_from_records(records: Iterable[TraceRecord]) -> PerfModel:
    """Replay records through the fold a :class:`PerfTracer` feeds online."""
    model = PerfModel()
    for kind, cat, name, rank, lane, t0, t1, args in records:
        if kind == "span":
            model.span(cat, name, t0, t1, rank, lane, args)
        else:  # a counter goes in as an instant of category "counter"
            model.instant(cat if kind == "instant" else kind, name, t1,
                          rank, lane, args)
    return model.finish()


def model_from_tracer(tracer: Tracer) -> PerfModel:
    """A :class:`PerfTracer` has the model already; records are replayed."""
    if isinstance(tracer, PerfTracer):
        return tracer.model.finish()
    return model_from_records(tracer.records)


def model_from_chrome(doc: dict) -> PerfModel:
    return model_from_records(records_from_chrome(doc))
