"""Critical-path extraction over the traced causal graph.

For the hybrid (tasking) variants the path is walked backward over the
explicit dependency edges: start from the last task to complete, attribute
its lifetime phases (dependency wait → scheduler → body → external-event
wait), then jump to the predecessor that completed last, until a task with
no predecessors is reached. Every second of the path is attributed to one
category:

* ``compute`` — task bodies executing on a core,
* ``comm`` — waiting for communication (MPI requests in flight, GASPI
  operations, wire time),
* ``lock_wait`` — serialized on the MPI global lock / GASPI queue device,
* ``notify_wait`` — waiting for a remote notification to arrive,
* ``sched`` — runtime overhead (ready-queue wait, creation, startup).

For the MPI-only variants there is no task graph; the path is the timeline
of the rank that finishes last, partitioned into MPI-library time (comm,
with the lock-wait component split out) and ``proc``/``compute`` spans.

The walk is deterministic: all ties break on (time, rank, uid).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.perf.model import PerfModel, TaskInfo, norm_rank

CATEGORIES = ("compute", "comm", "lock_wait", "notify_wait", "sched")


@dataclass
class PathSegment:
    """One attributed interval of the critical path."""

    t0: float
    t1: float
    category: str
    rank: object
    detail: str = ""

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@dataclass
class CriticalPath:
    segments: List[PathSegment]
    makespan: float

    def shares(self) -> Dict[str, float]:
        """Fraction of the path in each category (sums to ~1)."""
        total = sum(s.dur for s in self.segments)
        out = {c: 0.0 for c in CATEGORIES}
        for s in self.segments:
            out[s.category] = out.get(s.category, 0.0) + s.dur
        if total > 0.0:
            out = {c: v / total for c, v in out.items()}
        return out

    def comm_share(self) -> float:
        """Combined communication share: comm + lock + notification wait."""
        sh = self.shares()
        return sh["comm"] + sh["lock_wait"] + sh["notify_wait"]

    def length(self) -> float:
        return sum(s.dur for s in self.segments)


def _by_uid(uids: array) -> array:
    """Row indices sorted by ``uids[row]``, rows of one uid in row order."""
    return array("i", sorted(range(len(uids)), key=uids.__getitem__))


def _rows_of(order: array, uids: array, uid: int) -> array:
    key = uids.__getitem__
    return order[bisect_left(order, uid, key=key):
                 bisect_right(order, uid, key=key)]


class _Graph:
    """The task graph as the backward walk reads it from the model's
    columns: a completed task's record, with the waits bound to it, is
    built the first time the walk reaches it; per-rank indexes (waits by
    uid, tasks by start time) the first time a rank needs one."""

    def __init__(self, model: PerfModel) -> None:
        self.model = model
        self._done: Dict[Tuple[object, int], Optional[TaskInfo]] = {}
        self._waits: Dict[object, Tuple[array, array]] = {}
        self._running: Dict[object, Tuple[array, array]] = {}

    def done(self, rank: object, uid: int) -> Optional[TaskInfo]:
        """The completed task ``uid`` on ``rank``, or None."""
        key = (rank, uid)
        if key not in self._done:
            tt = self.model.tasks.get(rank)
            t = None
            if tt is not None and uid in tt and tt.completed[uid] > 0.0:
                t = tt.record(uid)
                rv = self.model.ranks.get(rank)
                if rv is not None:
                    iw, nw = self._wait_index(rank, rv)
                    t.mpi_waits = tuple(
                        rv.iwaits.record(i)
                        for i in _rows_of(iw, rv.iwaits.uid, uid))
                    t.notify_waits = tuple(
                        rv.notify_waits.record(rank, i)
                        for i in _rows_of(nw, rv.notify_waits.uid, uid))
            self._done[key] = t
        return self._done[key]

    def _wait_index(self, rank: object, rv) -> Tuple[array, array]:
        got = self._waits.get(rank)
        if got is None:
            got = self._waits[rank] = (_by_uid(rv.iwaits.uid),
                                       _by_uid(rv.notify_waits.uid))
        return got

    def tail(self) -> Tuple[Optional[TaskInfo], int]:
        """The task that completed last (ties broken on rank, then uid)
        and how many tasks completed."""
        best, n = None, 0
        for rank, tt in self.model.tasks.items():
            tie = (0 if isinstance(rank, int) else 1, str(rank))
            for uid, c in enumerate(tt.completed):
                if c > 0.0:
                    n += 1
                    key = (c, *tie, uid)
                    if best is None or key > best[0]:
                        best = (key, rank, uid)
        if best is None:
            return None, 0
        return self.done(best[1], best[2]), n

    def last_pred(self, t: TaskInfo) -> Optional[TaskInfo]:
        """The completed dependency predecessor of ``t`` that completed
        last (ties broken on uid)."""
        tt = self.model.tasks[t.rank]
        best = max(((tt.completed[u], u) for u in t.preds
                    if u in tt and tt.completed[u] > 0.0), default=None)
        return None if best is None else self.done(t.rank, best[1])

    def running_at(self, rank: object, t: float) -> Optional[TaskInfo]:
        """The completed task on ``rank`` whose body covered sim time ``t``
        (latest-starting one when worker lanes overlap); None if idle."""
        tt = self.model.tasks.get(rank)
        if tt is None:
            return None
        got = self._running.get(rank)
        if got is None:
            uids = array("i", sorted(
                (u for u in tt.order if tt.completed[u] > 0.0),
                key=lambda u: (tt.started[u], u)))
            got = self._running[rank] = (
                uids, array("d", (tt.started[u] for u in uids)))
        uids, starts = got
        i = bisect_right(starts, t) - 1
        while i >= 0:
            if tt.finished[uids[i]] >= t - 1e-12:
                return self.done(rank, uids[i])
            i -= 1
        return None


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _classify_wait(task: TaskInfo, t0: float, t1: float, rank: object,
                   out: List[PathSegment]) -> None:
    """Attribute the wait interval [t0, t1] of ``task`` using the
    communication records bound to it. Numeric attribution (not interval
    reconstruction): notification wait is the overlap with pending
    notification waits, lock wait is the library-lock component of the
    bound requests, and the remainder is in-flight communication."""
    span = t1 - t0
    if span <= 0.0:
        return
    notif = 0.0
    for w in task.notify_waits:
        notif += _overlap(t0, t1, w.registered_at, w.fulfilled_at)
    notif = min(notif, span)
    lock = 0.0
    for rec in task.mpi_waits:
        lock += rec.lock_wait
    lock = min(lock, span - notif)
    comm = span - notif - lock
    # emit in timeline order; the subdivision inside the window is nominal
    cur = t0
    for cat, dur in (("notify_wait", notif), ("lock_wait", lock),
                     ("comm", comm)):
        if dur > 0.0:
            out.append(PathSegment(cur, cur + dur, cat, rank,
                                   detail=task.label))
            cur += dur


def _task_path(model: PerfModel) -> CriticalPath:
    graph = _Graph(model)
    tail, n_done = graph.tail()
    if tail is None:
        return CriticalPath([], model.makespan)
    segments: List[PathSegment] = []
    seen = set()
    hops, limit = 0, 4 * n_done + 16
    t: Optional[TaskInfo] = tail
    # when the path enters a task through a producer jump, ``cut`` truncates
    # its phases at the submit time of the operation that released the
    # consumer — the rest of the producer's lifetime is off the path
    cut: Optional[float] = None
    while t is not None and hops < limit:
        key = (t.rank, t.uid, cut)
        if key in seen:
            break
        seen.add(key)
        hops += 1
        end = t.completed if cut is None else min(cut, t.completed)
        # completion at ``end`` was bound either by the task's own body
        # finishing (behind it: the dependency chain) or by a remote
        # event it consumed — a GASPI notification or a pending MPI recv
        # (behind both: the producing task on the peer rank). Whichever
        # happened last is the causal edge the path follows.
        bind = None
        for w in t.notify_waits:
            if w.immediate or w.fulfilled_at > end + 1e-12:
                continue
            if bind is None or ((w.fulfilled_at, str(w.seg), str(w.notif_id))
                                > (bind.fulfilled_at, str(bind.seg),
                                   str(bind.notif_id))):
                bind = w
        mbind = None
        for rec in t.mpi_waits:
            if (rec.kind != "recv"
                    or rec.sent_at is None
                    or rec.sent_at > end + 1e-12
                    or rec.t0 > end + 1e-12):
                continue
            # the span may outlive the completion instant by the release
            # grant; clamp its completion to ``end``
            if mbind is None or ((min(rec.t1, end), rec.tag or 0)
                                 > (min(mbind.t1, end), mbind.tag or 0)):
                mbind = rec
        bind_t = (bind.fulfilled_at
                  if bind is not None and bind.fulfilled_at > t.finished
                  else None)
        mb_t = min(mbind.t1, end) if mbind is not None else None
        if mb_t is not None and mb_t <= t.finished:
            mbind = mb_t = None
        prod = None
        if bind_t is not None and (mb_t is None or bind_t >= mb_t):
            mbind = None
            if bind.producer_uid is not None:
                prod = graph.done(bind.producer_rank, bind.producer_uid)
        else:
            bind = None
        if bind is None and mbind is not None:
            # the sender's task was mid-body when it injected the message;
            # resume the walk there
            prod = graph.running_at(norm_rank(mbind.peer), mbind.sent_at)
            if prod is None:
                mbind = None
        if prod is not None and bind is not None:
            # cross-rank jump: residual completion work, detection delay
            # (notify_wait), wire time (comm), then resume at the producer;
            # the consumer's own body is off the path — the notification
            # arrived after it finished
            if end > bind.fulfilled_at:
                _classify_wait(t, bind.fulfilled_at, end, t.rank, segments)
            arr = (bind.arrival_at if bind.arrival_at is not None
                   else bind.fulfilled_at)
            if bind.fulfilled_at > arr:
                segments.append(PathSegment(arr, bind.fulfilled_at,
                                            "notify_wait", t.rank,
                                            detail=f"detect {t.label}"))
            sent = bind.sent_at if bind.sent_at is not None else bind.submit_at
            if sent is not None and arr > sent:
                segments.append(PathSegment(
                    sent, arr, "comm", t.rank,
                    detail=f"notify from {bind.producer_rank}"))
            t = prod
            cut = bind.submit_at if bind.submit_at is not None else sent
            continue
        if prod is not None and mbind is not None:
            # wire time is comm; delivery-to-detection is the polling
            # latency (the TAMPI analogue of notification detection)
            sent = mbind.sent_at
            peer = norm_rank(mbind.peer)
            deliver = model.wire.get(peer, t.rank, mbind.tag, sent)
            if end > mb_t:
                _classify_wait(t, mb_t, end, t.rank, segments)
            if deliver is not None and sent < deliver < mb_t:
                segments.append(PathSegment(
                    deliver, mb_t, "notify_wait", t.rank,
                    detail=f"detect {t.label}"))
                segments.append(PathSegment(
                    sent, deliver, "comm", t.rank,
                    detail=f"recv from {peer}"))
            elif mb_t > sent:
                segments.append(PathSegment(
                    sent, mb_t, "comm", t.rank,
                    detail=f"recv from {peer}"))
            t = prod
            cut = sent
            continue
        # backward through the task's phases, truncated at ``end``
        if end > t.finished:
            _classify_wait(t, t.finished, end, t.rank, segments)
        body_end = min(end, t.finished)
        if body_end > t.started:
            segments.append(PathSegment(t.started, body_end, "compute",
                                        t.rank, detail=t.label))
        anchor = t.ready if t.ready > 0.0 else t.started
        sched_end = min(end, t.started)
        if sched_end > anchor > 0.0:
            segments.append(PathSegment(anchor, sched_end, "sched", t.rank,
                                        detail=t.label))
        # jump to the dependency predecessor that completed last
        pred = graph.last_pred(t)
        dep_t = pred.completed if pred is not None else 0.0
        if pred is not None:
            if anchor > dep_t:
                # gap between the releasing completion and readiness:
                # onready-registered events (notifications / RMA acks)
                _classify_wait(t, dep_t, anchor, t.rank, segments)
            t, cut = pred, None
            continue
        if anchor > 0.0:
            # no predecessor: creation/startup leads the chain
            segments.append(PathSegment(
                max(0.0, min(t.created, anchor)), anchor, "sched",
                t.rank, detail=f"{t.label} (start)"))
        t = None
    segments.reverse()
    return CriticalPath(segments, model.makespan)


def _union(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def _rank_timeline_path(model: PerfModel) -> CriticalPath:
    """MPI-only variants: partition the last-finishing rank's timeline."""
    last_rank, last_t = None, -1.0
    for rank in model.sorted_ranks():
        rv = model.ranks[rank]
        t = max([0.0, *(max(ends) for ends in (
            rv.blocked.t1, rv.mpi_calls.t1, rv.compute.t1) if ends)])
        if t > last_t:
            last_rank, last_t = rank, t
    segments: List[PathSegment] = []
    if last_rank is None:
        return CriticalPath(segments, model.makespan)
    rv = model.ranks[last_rank]
    comm = _union([*zip(rv.blocked.t0, rv.blocked.t1),
                   *zip(rv.mpi_calls.t0, rv.mpi_calls.t1)])
    compute = _union(list(zip(rv.compute.t0, rv.compute.t1)))
    lock = sum(rv.mpi_calls.wait)
    end = last_t
    events: List[PathSegment] = []
    for a, b in comm:
        events.append(PathSegment(a, min(b, end), "comm", last_rank))
    for a, b in compute:
        # compute minus comm overlap (blocking waits sit inside the rank's
        # step loop; the library spans win the attribution)
        cur = a
        for c0, c1 in comm:
            if c1 <= cur or c0 >= b:
                continue
            if c0 > cur:
                events.append(PathSegment(cur, min(c0, b), "compute",
                                          last_rank))
            cur = max(cur, c1)
        if cur < b:
            events.append(PathSegment(cur, b, "compute", last_rank))
    events.sort(key=lambda s: (s.t0, s.t1))
    # fill unattributed gaps as runtime overhead
    cur = 0.0
    for s in events:
        if s.t0 > cur:
            segments.append(PathSegment(cur, s.t0, "sched", last_rank))
        segments.append(s)
        cur = max(cur, s.t1)
    if end > cur:
        segments.append(PathSegment(cur, end, "sched", last_rank))
    # carve the measured lock wait out of comm (nominal reattribution)
    if lock > 0.0:
        remaining = lock
        for s in segments:
            if s.category == "comm" and remaining > 0.0:
                take = min(remaining, s.dur)
                if take >= s.dur:
                    s.category = "lock_wait"
                else:
                    s.t1 -= take  # shrink; append the carved piece after
                    segments.append(PathSegment(s.t1, s.t1 + take,
                                                "lock_wait", s.rank))
                remaining -= take
        segments.sort(key=lambda s: (s.t0, s.t1))
    return CriticalPath(segments, model.makespan)


def critical_path(model: PerfModel) -> CriticalPath:
    """Extract the critical path of a traced run."""
    if model.is_tasking:
        return _task_path(model)
    return _rank_timeline_path(model)
