"""Normalized performance model folded from trace emits.

The :class:`PerfModel` is the input to every analysis in :mod:`repro.perf`:
it joins the tracer's causal instants (``task_submit``/``task_done`` with
predecessor uids, ``msg_send``/``msg_deliver`` wire edges, GASPI
``notify_arrival`` and TAGASPI ``notify_fulfilled`` completion edges) with
the per-layer spans into per-task and per-rank views.

One builder, two feeds: a :class:`PerfTracer` folds the emits of a running
``perf=True`` job and keeps no records; a recording tracer or an exported
Chrome-trace document (``records_from_chrome``) is replayed through the
same fold, so the CLI analyzes the model the in-process hook does. Either
way the model keeps, per emit, only the fields the analyses read back, as
one row of typed :mod:`array` columns: a rank's tasks in a
:class:`TaskTable` indexed by uid, its span buckets in :class:`Columns`
(a missing float is NaN, a missing int :data:`NO_INT`). The analyses read
the columns and build record objects (:class:`TaskInfo`, :class:`IWait`,
:class:`NotifyWait`) only for the rows they walk.

Rank normalization: the tasking runtime names ranks ``"rank0"`` (strings)
while the MPI/GASPI/network layers use integer ranks; both are folded onto
the integer rank so a task and its communication land in the same bucket.
"""

from __future__ import annotations

import functools
import operator
import re
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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


NAN = float("nan")
#: what an int column stores for None
NO_INT = -(1 << 63)
#: what a ``kind`` column stores: the index of the request kind here
KINDS = (None, "send", "recv")
_KIND = {kind: i for i, kind in enumerate(KINDS)}
_uid = operator.attrgetter("uid")


def _f(x: Optional[float]) -> float:
    return NAN if x is None else x


def _i(x: Optional[int]) -> int:
    return NO_INT if x is None else x


def _opt_f(x: float) -> Optional[float]:
    return None if x != x else x


def _opt_i(x: int) -> Optional[int]:
    return None if x == NO_INT else x


@dataclass(slots=True)
class IWait:
    """A TAMPI ``iwait.pending`` span, as the critical-path walk reads it."""

    t0: float
    t1: float
    kind: Optional[str]
    peer: object
    tag: object
    sent_at: Optional[float]
    lock_wait: float


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


@dataclass(slots=True)
class TaskInfo:
    """One task, keyed by (rank, uid): a :class:`TaskTable` row."""

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
    #: TAMPI ``iwait.pending`` spans bound to this task (the critical-path
    #: walk fills these in for the tasks it visits)
    mpi_waits: Tuple[IWait, ...] = ()
    #: joined notification waits bound to this task
    notify_waits: Tuple[NotifyWait, ...] = ()


class Columns:
    """Parallel typed columns, one row per kept emit. A subclass names its
    columns in ``__slots__`` and gives their :mod:`array` typecodes, in the
    same order, in ``CODES``."""

    __slots__ = ()
    CODES = ""

    def __init__(self) -> None:
        for name, code in zip(self.__slots__, self.CODES):
            setattr(self, name, array(code))

    def columns(self) -> Iterator[array]:
        return (getattr(self, name) for name in self.__slots__)

    def rows(self) -> Iterator[tuple]:
        return zip(*self.columns())

    def append(self, *row) -> None:
        """Append one row (the hot fold methods append column by column)."""
        for col, value in zip(self.columns(), row):
            col.append(value)

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __eq__(self, other: object) -> bool:
        # by bytes, so a missing value (NaN) equals itself
        return type(other) is type(self) and all(
            a.tobytes() == b.tobytes()
            for a, b in zip(self.columns(), other.columns()))

    __hash__ = None  # type: ignore[assignment]


class Intervals(Columns):
    """Kept ``[t0, t1]`` spans: ``proc``/``compute`` and ``*.detect``."""

    __slots__ = ("t0", "t1")
    CODES = "dd"


class MPICalls(Columns):
    """``mpi`` library spans other than a blocking wait; ``wait`` is the
    time queued on the MPI global lock."""

    __slots__ = ("t0", "t1", "wait")
    CODES = "ddd"


class BlockedWaits(Columns):
    """``mpi`` ``wait.block`` / ``waitall.block`` spans; ``sent_at`` is the
    injection time of the matching message (recv side)."""

    __slots__ = ("t0", "t1", "kind", "sent_at")
    CODES = "ddbd"


class IWaits(Columns):
    """TAMPI ``iwait.pending`` spans and the uid of the waiting task."""

    __slots__ = ("t0", "t1", "kind", "peer", "tag", "sent_at", "lock_wait",
                 "uid")
    CODES = "ddbqqddq"

    def record(self, i: int) -> IWait:
        return IWait(self.t0[i], self.t1[i], KINDS[self.kind[i]],
                     _opt_i(self.peer[i]), _opt_i(self.tag[i]),
                     _opt_f(self.sent_at[i]), self.lock_wait[i])


class NotifyWaits(Columns):
    """Joined notification waits, one :class:`NotifyWait` per row."""

    __slots__ = ("seg", "notif_id", "uid", "registered_at", "fulfilled_at",
                 "arrival_at", "sent_at", "immediate", "producer_rank",
                 "producer_uid", "submit_at")
    CODES = "qqqddddbqqd"

    def record(self, rank: object, i: int) -> NotifyWait:
        return NotifyWait(
            rank, _opt_i(self.seg[i]), _opt_i(self.notif_id[i]),
            _opt_i(self.uid[i]), self.registered_at[i], self.fulfilled_at[i],
            _opt_f(self.arrival_at[i]), _opt_f(self.sent_at[i]),
            bool(self.immediate[i]), _opt_i(self.producer_rank[i]),
            _opt_i(self.producer_uid[i]), _opt_f(self.submit_at[i]))


class Wire(Columns):
    """Tagged sends: the wire key ``(src, dst, tag, t)`` the recv side
    knows a message by, and its delivery time (NaN until delivered; after
    :meth:`PerfModel.finish` only delivered rows are left)."""

    __slots__ = ("src", "dst", "tag", "t", "deliver")
    CODES = "qqqdd"

    def get(self, src: int, dst: int, tag: Optional[int],
            t: float) -> Optional[float]:
        """Delivery time of the last delivered send with this key."""
        tag = _i(tag)
        found, i = None, -1
        while True:
            try:
                i = self.t.index(t, i + 1)
            except ValueError:
                return found
            if (self.src[i] == src and self.dst[i] == dst
                    and self.tag[i] == tag):
                found = self.deliver[i]


class _Arrivals(Columns):
    """``gaspi``/``notify_arrival`` instants of one rank, until finish()."""

    __slots__ = ("seg", "notif_id", "t", "sent_at")
    CODES = "qqdd"


class _Submits(Columns):
    """``tagaspi``/``op_submit`` instants aimed at one rank (``rank`` and
    ``uid`` name the producer), until finish()."""

    __slots__ = ("seg", "notif_id", "t", "rank", "uid")
    CODES = "qqdqq"


class _Consumes(Columns):
    """Notification consumptions of one rank, until finish() joins them."""

    __slots__ = ("seg", "notif_id", "uid", "registered_at", "fulfilled_at",
                 "immediate")
    CODES = "qqqddb"


def _groups(cols: Optional[Columns]) -> Dict[Tuple[int, int], List[int]]:
    """Row indices by ``(seg, notif_id)``, each list in emission order."""
    out: Dict[Tuple[int, int], List[int]] = {}
    if cols is not None:
        for i, key in enumerate(zip(cols.seg, cols.notif_id)):
            out.setdefault(key, []).append(i)
    return out


class TaskTable:
    """One rank's tasks as columns indexed by the runtime-local uid. A uid
    no emit named is a hole (``label`` -1); ``order`` lists the named uids
    in the order their first emit came. Row ``u``'s predecessor uids are
    ``preds[pred_at[u]:pred_at[u] + pred_n[u]]``; its label is
    ``labels[label[u]]``, from the table every rank shares."""

    __slots__ = ("rank", "labels", "label", "created", "ready", "started",
                 "finished", "completed", "cpu", "pred_at", "pred_n",
                 "preds", "order")

    def __init__(self, rank: object, labels: List[str]) -> None:
        self.rank = rank
        self.labels = labels
        self.label = array("i")
        self.created = array("d")
        self.ready = array("d")
        self.started = array("d")
        self.finished = array("d")
        self.completed = array("d")
        self.cpu = array("d")
        self.pred_at = array("i")
        self.pred_n = array("i")
        self.preds = array("i")
        self.order = array("i")

    def touch(self, uid: int) -> None:
        """Name ``uid`` (default fields, label ``labels[0]``) if no emit
        did yet."""
        label = self.label
        if uid < len(label) and label[uid] >= 0:
            return
        while len(label) <= uid:  # one hole per uid skipped
            label.append(-1)
            self.created.append(0.0)
            self.ready.append(0.0)
            self.started.append(0.0)
            self.finished.append(0.0)
            self.completed.append(0.0)
            self.cpu.append(0.0)
            self.pred_at.append(0)
            self.pred_n.append(0)
        label[uid] = 0
        self.order.append(uid)

    def __contains__(self, uid: int) -> bool:
        return 0 <= uid < len(self.label) and self.label[uid] >= 0

    def __eq__(self, other: object) -> bool:
        return (type(other) is TaskTable and self.rank == other.rank
                and self.labels == other.labels
                and all(getattr(self, n).tobytes() == getattr(other, n).tobytes()
                        for n in self.__slots__[2:]))

    __hash__ = None  # type: ignore[assignment]

    def record(self, uid: int) -> TaskInfo:
        at = self.pred_at[uid]
        return TaskInfo(
            self.rank, uid, self.labels[self.label[uid]],
            tuple(self.preds[at:at + self.pred_n[uid]]), self.created[uid],
            self.ready[uid], self.started[uid], self.finished[uid],
            self.completed[uid], self.cpu[uid])


@dataclass
class RankView:
    """Per-rank span buckets for wait-state and efficiency analysis."""

    rank: object
    #: ``mpi`` blocking spans (``wait.block`` / ``waitall.block``)
    blocked: BlockedWaits = field(default_factory=BlockedWaits)
    #: all other ``mpi`` library spans
    mpi_calls: MPICalls = field(default_factory=MPICalls)
    #: ``proc``/``compute`` spans (MPI-only useful work)
    compute: Intervals = field(default_factory=Intervals)
    #: queue-device wait of each ``gaspi`` submission span
    gaspi_waits: array = field(default_factory=lambda: array("d"))
    #: TAGASPI ``*.detect`` spans (poller detection delay)
    detects: Intervals = field(default_factory=Intervals)
    #: TAMPI ``iwait.pending`` spans
    iwaits: IWaits = field(default_factory=IWaits)
    #: joined notification waits consumed on this rank
    notify_waits: NotifyWaits = field(default_factory=NotifyWaits)
    #: distinct worker lanes observed (cores actually used)
    lanes: set = field(default_factory=set)
    #: total task CPU seconds (completed, non-poller tasks)
    task_cpu: float = 0.0


class PerfModel:
    """Joined causal model of one traced run, built as a fold: feed every
    emit in order (:class:`PerfTracer` online, or records replayed), then
    :meth:`finish`. Each kept emit appends one row to typed columns; no
    record, no emit args dict and no per-row object is kept."""

    def __init__(self) -> None:
        self.ranks: Dict[object, RankView] = {}
        self.tasks: Dict[object, TaskTable] = {}
        #: task labels, shared by every rank's table; 0 is the default
        self.labels: List[str] = ["task"]
        self.wire = Wire()
        self.makespan = 0.0
        self._finished = False
        # what finish() joins, then drops: label -> index, the wire row
        # of each tagged send still in flight by edge id, and per rank the
        # notification arrivals, the producer submits aimed at it and its
        # consumptions
        self._label_ix: Dict[str, int] = {"task": 0}
        self._inflight: Dict[int, int] = {}
        self._arrivals: Dict[object, _Arrivals] = {}
        self._submits: Dict[object, _Submits] = {}
        self._consumes: Dict[object, _Consumes] = {}

    # ------------------------------------------------------------------
    # a hot caller looks a rank up itself and calls these on a miss only:
    # ``self.ranks.get(r) or self._rank(r)`` (a view or table is truthy)
    def _rank(self, rank: object) -> RankView:
        rv = self.ranks.get(rank)
        if rv is None:
            rv = self.ranks[rank] = RankView(rank)
        return rv

    def _table(self, rank: object) -> TaskTable:
        tt = self.tasks.get(rank)
        if tt is None:
            tt = self.tasks[rank] = TaskTable(rank, self.labels)
        return tt

    def _label(self, label: str) -> int:
        ix = self._label_ix.get(label)
        if ix is None:
            ix = self._label_ix[label] = len(self.labels)
            self.labels.append(label)
        return ix

    # ------------------------------------------------------------------
    # the fold: one call per emit, in emission order (a counter is an
    # instant of a category nothing joins: only its time counts). The
    # generic span()/instant() dispatch to the named methods below, which
    # PerfTracer's typed emits call directly.
    def span(self, cat: str, name: str, t0: float, t1: float, rank: object,
             lane: Optional[str], args: Optional[dict]) -> None:
        if cat == "tasking":
            self.tasking_span(rank, lane, t1)
        elif cat == "mpi":
            if name in ("wait.block", "waitall.block"):
                self.blocked(rank, t0, t1, args.get("kind"),
                             args.get("sent_at"))
            else:
                self.mpi_call(rank, t0, t1, args.get("wait", 0.0))
        elif cat == "proc" and name == "compute":
            self.compute(rank, t0, t1)
        elif cat == "tampi" and name == "iwait.pending":
            self.iwait(rank, t0, t1, args.get("kind"), args.get("peer"),
                       args.get("tag"), args.get("sent_at"),
                       args.get("lock_wait", 0.0), args.get("uid"))
        elif cat == "tagaspi" and name.endswith(".detect"):
            self.detect(rank, t0, t1)
        elif cat == "gaspi":
            self.gaspi_wait(rank, t1, args.get("wait", 0.0))
        elif t1 > self.makespan:
            self.makespan = t1

    def instant(self, cat: str, name: str, t: float, rank: object,
                lane: Optional[str], args: Optional[dict]) -> None:
        if cat == "tasking" and name == "task_submit":
            self.task_submit(rank, t, args["uid"], args.get("task"),
                             args.get("preds", ()))
        elif cat == "tasking" and name == "task_done":
            self.task_done(rank, t, **args)
        elif cat == "net" and name == "msg_send":
            self.msg_send(t, args["eid"], rank, args.get("dst"), args)
        elif cat == "net" and name == "msg_deliver":
            self.msg_deliver(t, args["eid"])
        elif cat == "gaspi" and name == "notify_arrival":
            self.notify_arrival(rank, t, args.get("seg"),
                                args.get("notif_id"), args.get("sent_at"))
        elif cat == "tagaspi" and name == "op_submit":
            self.op_submit(rank, t, args.get("uid"), args.get("dest"),
                           args.get("seg"), args.get("notif_id"))
        elif cat == "tagaspi" and name in ("notify_fulfilled",
                                           "notify_immediate"):
            self.notify_consumed(rank, t, args.get("seg"),
                                 args.get("notif_id"), args.get("uid"),
                                 args.get("registered_at", t),
                                 name == "notify_immediate")
        elif t > self.makespan:
            self.makespan = t

    def tasking_span(self, rank: object, lane: Optional[str],
                     t1: float) -> None:
        """A ``tasking`` span keeps its end and its worker lane."""
        if t1 > self.makespan:
            self.makespan = t1
        if lane and lane[0] == "w":
            rank = norm_rank(rank)
            (self.ranks.get(rank) or self._rank(rank)).lanes.add(lane)

    def blocked(self, rank: object, t0: float, t1: float,
                kind: Optional[str], sent_at: Optional[float]) -> None:
        if t1 > self.makespan:
            self.makespan = t1
        rank = norm_rank(rank)
        c = (self.ranks.get(rank) or self._rank(rank)).blocked
        c.t0.append(t0)
        c.t1.append(t1)
        c.kind.append(_KIND[kind])
        c.sent_at.append(NAN if sent_at is None else sent_at)

    def mpi_call(self, rank: object, t0: float, t1: float,
                 wait: float) -> None:
        if t1 > self.makespan:
            self.makespan = t1
        rank = norm_rank(rank)
        c = (self.ranks.get(rank) or self._rank(rank)).mpi_calls
        c.t0.append(t0)
        c.t1.append(t1)
        c.wait.append(wait)

    def compute(self, rank: object, t0: float, t1: float) -> None:
        if t1 > self.makespan:
            self.makespan = t1
        rank = norm_rank(rank)
        c = (self.ranks.get(rank) or self._rank(rank)).compute
        c.t0.append(t0)
        c.t1.append(t1)

    def detect(self, rank: object, t0: float, t1: float) -> None:
        if t1 > self.makespan:
            self.makespan = t1
        rank = norm_rank(rank)
        c = (self.ranks.get(rank) or self._rank(rank)).detects
        c.t0.append(t0)
        c.t1.append(t1)

    def gaspi_wait(self, rank: object, t1: float, wait: float) -> None:
        if t1 > self.makespan:
            self.makespan = t1
        rank = norm_rank(rank)
        (self.ranks.get(rank) or self._rank(rank)).gaspi_waits.append(wait)

    def iwait(self, rank: object, t0: float, t1: float, kind: Optional[str],
              peer: Optional[int], tag: Optional[int],
              sent_at: Optional[float], lock_wait: float,
              uid: Optional[int]) -> None:
        if t1 > self.makespan:
            self.makespan = t1
        rank = norm_rank(rank)
        c = (self.ranks.get(rank) or self._rank(rank)).iwaits
        c.t0.append(t0)
        c.t1.append(t1)
        c.kind.append(_KIND[kind])
        c.peer.append(NO_INT if peer is None else peer)
        c.tag.append(NO_INT if tag is None else tag)
        c.sent_at.append(NAN if sent_at is None else sent_at)
        c.lock_wait.append(lock_wait)
        if uid is None:
            c.uid.append(NO_INT)
        else:
            c.uid.append(uid)
            (self.tasks.get(rank) or self._table(rank)).touch(uid)

    def task_submit(self, rank: object, t: float, uid: int,
                    label: Optional[str], preds: Iterable[int]) -> None:
        if t > self.makespan:
            self.makespan = t
        rank = norm_rank(rank)
        tt = self.tasks.get(rank) or self._table(rank)
        tt.touch(uid)
        if label is not None:
            tt.label[uid] = self._label(label)
        at = tt.pred_at[uid] = len(tt.preds)
        tt.preds.extend(preds)
        tt.pred_n[uid] = len(tt.preds) - at
        tt.created[uid] = t

    def task_done(self, rank: object, t: float, uid: int,
                  task: Optional[str] = None, created: Optional[float] = None,
                  ready: float = 0.0, started: float = 0.0,
                  finished: float = 0.0, cpu: float = 0.0, **_) -> None:
        """The ``tasking/task_done`` instant, its args spelled out."""
        if t > self.makespan:
            self.makespan = t
        rank = norm_rank(rank)
        tt = self.tasks.get(rank) or self._table(rank)
        tt.touch(uid)
        if task is not None:
            tt.label[uid] = self._label(task)
        if created is not None:
            tt.created[uid] = created
        tt.ready[uid] = ready
        tt.started[uid] = started
        tt.finished[uid] = finished
        tt.completed[uid] = t
        tt.cpu[uid] = cpu

    def msg_send(self, t: float, eid: int, src: object, dst: object,
                 meta: Optional[dict]) -> None:
        """The ``net/msg_send`` instant, its fields spelled out: a tagged
        message keeps its wire key ``(src, dst, tag, t)``, nothing else.
        ``meta`` is the message's (online) or the instant's args (replay):
        only its ``tag`` is read."""
        if t > self.makespan:
            self.makespan = t
        if meta and "tag" in meta:
            self._inflight[eid] = len(self.wire)
            self.wire.append(norm_rank(src), norm_rank(dst),
                             _i(meta["tag"]), t, NAN)

    def msg_deliver(self, t: float, eid: int) -> None:
        if t > self.makespan:
            self.makespan = t
        # a send is emitted before its delivery, and only a tagged one is
        # kept: nothing else is ever joined
        row = self._inflight.pop(eid, None)
        if row is not None:
            self.wire.deliver[row] = t

    def notify_arrival(self, rank: object, t: float, seg: Optional[int],
                       notif_id: Optional[int],
                       sent_at: Optional[float]) -> None:
        if t > self.makespan:
            self.makespan = t
        rank = norm_rank(rank)
        c = self._arrivals.get(rank)
        if c is None:
            c = self._arrivals[rank] = _Arrivals()
        c.append(_i(seg), _i(notif_id), t, _f(sent_at))

    def op_submit(self, rank: object, t: float, uid: Optional[int],
                  dest: object, seg: Optional[int],
                  notif_id: Optional[int]) -> None:
        if t > self.makespan:
            self.makespan = t
        dest = norm_rank(dest)
        c = self._submits.get(dest)
        if c is None:
            c = self._submits[dest] = _Submits()
        c.append(_i(seg), _i(notif_id), t, _i(norm_rank(rank)), _i(uid))

    def notify_consumed(self, rank: object, t: float, seg: Optional[int],
                        notif_id: Optional[int], uid: Optional[int],
                        registered_at: float, immediate: bool) -> None:
        """A ``notify_fulfilled`` or ``notify_immediate`` instant."""
        if t > self.makespan:
            self.makespan = t
        rank = norm_rank(rank)
        c = self._consumes.get(rank)
        if c is None:
            c = self._consumes[rank] = _Consumes()
        c.append(_i(seg), _i(notif_id), _i(uid), registered_at, t, immediate)

    def finish(self) -> "PerfModel":
        """Join what the fold collected, once every record is in."""
        if self._finished:
            return self
        self._finished = True
        for rank, consumed in self._consumes.items():
            self._rank(rank).notify_waits = self._join_notifications(
                rank, consumed)
        # a wire key is kept once its message is delivered
        wire = self.wire
        if any(d != d for d in wire.deliver):
            self.wire = Wire()
            for row in wire.rows():
                if row[4] == row[4]:
                    self.wire.append(*row)
        for joined in (self._label_ix, self._inflight, self._arrivals,
                       self._submits, self._consumes):
            joined.clear()

        # task CPU of completed (or finished) tasks, summed per rank in
        # first-emit order
        for rank, tt in self.tasks.items():
            done = [u for u in tt.order
                    if tt.completed[u] > 0.0 or tt.finished[u] > 0.0]
            if done:
                rv = self._rank(rank)
                for u in done:
                    rv.task_cpu += tt.cpu[u]
        return self

    def _join_notifications(self, rank: object,
                            c: _Consumes) -> NotifyWaits:
        """Join ``rank``'s notification consumptions with the wire arrivals
        and the producer submits, FIFO per (seg, notif_id): ids are reused
        across iterations and consumed in posting order. Rows come out per
        id in first-consumption order, each id's by fulfilment time."""
        arrivals, submits = self._arrivals.get(rank), self._submits.get(rank)
        arrived, submitted = _groups(arrivals), _groups(submits)
        out = NotifyWaits()
        for (seg, notif_id), rows in _groups(c).items():
            rows.sort(key=c.fulfilled_at.__getitem__)
            arr = sorted(arrived.get((seg, notif_id), ()),
                         key=arrivals.t.__getitem__) if arrivals else []
            sub = sorted(submitted.get((seg, notif_id), ()),
                         key=submits.t.__getitem__) if submits else []
            for n, i in enumerate(rows):
                a = arr[n] if n < len(arr) else None
                s = sub[n] if n < len(sub) else None
                out.append(seg, notif_id, c.uid[i], c.registered_at[i],
                           c.fulfilled_at[i],
                           NAN if a is None else arrivals.t[a],
                           NAN if a is None else arrivals.sent_at[a],
                           c.immediate[i],
                           NO_INT if s is None else submits.rank[s],
                           NO_INT if s is None else submits.uid[s],
                           NAN if s is None else submits.t[s])
                if c.uid[i] != NO_INT:
                    self._table(rank).touch(c.uid[i])
        return out

    # ------------------------------------------------------------------
    @property
    def completed_tasks(self) -> List[TaskInfo]:
        """Records of every completed task (built on each call; the
        analyses read the columns instead)."""
        return [tt.record(u) for tt in self.tasks.values()
                for u in tt.order if tt.completed[u] > 0.0]

    def sorted_ranks(self) -> List[object]:
        return sorted(self.ranks, key=lambda r: (not isinstance(r, int), str(r)))

    @property
    def is_tasking(self) -> bool:
        """True when the run used a tasking runtime (hybrid variants)."""
        return any(c > 0.0 for tt in self.tasks.values()
                   for c in tt.completed)


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
        m = self.model
        if t > m.makespan:
            m.makespan = t

    # the typed emits read the objects' slots: no kwargs dict per task or
    # message, and an emit nothing joins costs one compare
    def task_submit(self, runtime, task, preds):
        self.model.task_submit(runtime.name, runtime.engine.now, task.uid,
                               task.label, map(_uid, preds))

    def ready_wait(self, worker, task):
        self.model.tasking_span(worker.runtime.name, worker.lane,
                                worker.engine.now)

    def onready_wait(self, runtime, task, t0):
        m, t1 = self.model, runtime.engine.now
        if t1 > m.makespan:
            m.makespan = t1

    def event_wait(self, runtime, task):
        m, t1 = self.model, task.completed_at
        if t1 > m.makespan:
            m.makespan = t1

    def task_on_core(self, worker, task, t0, outcome):
        self.model.tasking_span(worker.runtime.name, worker.lane,
                                worker.engine.now)

    def task_done(self, runtime, task):
        self.model.task_done(
            runtime.name, runtime.engine.now, task.uid, task.label,
            task.created_at, task.ready_at, task.started_at,
            task.finished_at, task.cpu_time)

    def mpi_call(self, rank, op, t0, t1, wait):
        self.model.mpi_call(rank, t0, t1, wait)

    def iwait_pending(self, rank, task, req, t0, t1, wait):
        self.model.iwait(rank, t0, t1, req.kind, req.peer, req.tag,
                         req.sent_at, wait, task.uid)

    def op_submit(self, rank, task, op, params, t):
        self.model.op_submit(rank, t, task.uid, params.get("dest"),
                             params.get("remote_seg"), params.get("notif_id"))

    def notify_immediate(self, rank, task, seg, notif_id, t):
        self.model.notify_consumed(rank, t, seg, notif_id, task.uid, t, True)

    def op_retired(self, rank, req, queue, uid, now):
        done = req.done_at
        if now > done:
            self.model.detect(rank, done, now)
        elif done > self.model.makespan:
            self.model.makespan = done

    def notify_fulfilled(self, rank, pending, t):
        self.model.notify_consumed(
            rank, t, pending.seg_id, pending.notif_id, pending.task.uid,
            pending.registered_at, False)

    def gaspi_submit(self, rank, operation, t0, t1, wait, queue, count, depth,
                     *addressing):
        self.model.gaspi_wait(rank, t1, wait)

    def notify_arrival(self, rank, msg, t):
        meta = msg.meta
        self.model.notify_arrival(rank, t, meta["remote_seg"],
                                  meta["notif_id"], msg.injected_at)

    def wire_span(self, msg, t0, t1, intra, local_done):
        m = self.model
        if t1 > m.makespan:
            m.makespan = t1

    def msg_send(self, msg, eid, t):
        self.model.msg_send(t, eid, msg.src_rank, msg.dst_rank, msg.meta)

    def msg_deliver(self, msg, eid, t):
        self.model.msg_deliver(t, eid)


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
