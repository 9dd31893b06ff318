"""The discrete-event engine.

A single :class:`Engine` owns simulated time and its event queue.
Everything that "happens" in the simulated cluster is an
:class:`~repro.sim.events.Event` scheduled on this queue.

Ordering is the deterministic triple ``(time, priority, seq)``: ``seq`` is a
monotonically increasing insertion counter, so events scheduled for the same
instant fire in insertion order unless an explicit priority says otherwise.
Lower priority values fire first.

Two engine implementations share that contract and are interchangeable
(``REPRO_ENGINE=object|batched`` selects which one the :data:`Engine` alias
names; ``batched`` is the default):

* :class:`ObjectEngine` — the two-lane per-event dispatcher (heap + FIFO
  immediate lane). Retained verbatim as the *differential oracle*: the
  property tests in tests/test_properties.py replay randomized schedules on
  both engines and require identical fire order, time, and event counts,
  the same pattern that keeps ``LinearMatchingEngine`` next to the indexed
  MPI matcher.
* :class:`BatchedEngine` — the array-native hot core (docs/performance.md).
  It adds a third *timeline lane*: a ring of parallel arrays (times, seqs,
  events) appended in sorted order by :meth:`ObjectEngine.schedule_batch`,
  which the vectorized NIC wire path (:mod:`repro.network.batch`) fills
  with whole message batches at once. Its run loop pops *runs* of
  same-lane events and fires them through a tight loop with no heap
  traffic, re-checking the cross-lane barrier only when a fired callback
  mutates another lane.

Performance notes (docs/performance.md has the full fast-path contract):

* Normal-priority events scheduled with ``delay == 0`` — the dominant
  class in this code base: condition triggers, completion notifications,
  park/unpark signals — go to a FIFO *immediate lane* (a deque; O(1) in,
  O(1) out). Everything else goes to the binary heap. Because simulated
  time never runs backwards and ``seq`` grows monotonically, the lane is
  always sorted by ``(time, seq)`` by construction; dispatch compares the
  lane heads on the full ``(time, priority, seq)`` key, so the firing
  order is *identical* to a single-heap engine (property-tested in
  tests/test_sim_engine.py).
* :meth:`Engine.run` dispatches through an inlined fast loop whenever no
  tracing of any kind is requested — local bindings, no per-event tracer
  attribute reads, ``until``/``max_events`` guards hoisted out of the
  common loop. The loop inlines :meth:`Event._fire` (no Event subclass
  overrides it).
* Cancellation is *lazy*: :meth:`Event.cancel` only flags the entry; the
  engine discards flagged entries as they surface at a lane head, so
  defusing a timeout costs O(1) instead of an O(n) queue rebuild.
  Introspection (:meth:`peek`, :attr:`queue_depth`, :meth:`budget_error`)
  reports *live* events only — a counter-based accounting that never
  scans a lane or ring buffer — so deadlock diagnostics never count
  corpses.
"""

from __future__ import annotations

import os
from collections import deque
import math
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional

import numpy as np

from repro.analysis.pipeline import NULL_ANALYSIS
from repro.trace.tracer import NULL_TRACER, Tracer

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for model errors)."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


#: Priority used by ordinary events.
PRIORITY_NORMAL = 0
#: Priority for bookkeeping that must run before normal events at an instant.
PRIORITY_URGENT = -1


class ObjectEngine:
    """Deterministic discrete-event simulation engine (per-event dispatch).

    This is the reference implementation and differential oracle for
    :class:`BatchedEngine`; the module-level :data:`Engine` alias picks one
    of the two from ``REPRO_ENGINE``.

    Parameters
    ----------
    trace:
        Optional callable invoked as ``trace(time, event)`` just before each
        event fires; used by tests and debugging tools.
    tracer:
        Optional :class:`repro.trace.Tracer` collecting typed records from
        every instrumented layer; defaults to the zero-cost
        :data:`~repro.trace.NULL_TRACER`.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_lane",
        "_seq",
        "_trace",
        "_running",
        "_stop",
        "_event_count",
        "_cancelled",
        "_qgen",
        "_failed",
        "tracer",
        "analysis",
        "_progress_t0",
        "current_context",
    )

    def __init__(self, trace: Optional[Callable[[float, "Event"], None]] = None,
                 tracer: Optional[Tracer] = None):
        self._now: float = 0.0
        #: (time, priority, seq, event) entries with delay > 0 or
        #: non-normal priority
        self._heap: list = []
        #: events scheduled with delay == 0 at normal priority, FIFO.
        #: Entries are *bare events*: a live lane entry's fire time is
        #: always exactly ``self._now`` (time is monotone and nothing
        #: later may overtake, so the head fires before time can advance
        #: — property-tested), and its seq lives in ``event._lseq``.
        self._lane: deque = deque()
        self._seq: int = 0
        self._trace = trace
        self._running = False
        #: set by the ``run(until_done=...)`` watcher when the last watched
        #: process completes; every dispatch loop tests it at its outer-loop
        #: boundary (the watcher also bumps ``_qgen`` to end an event run)
        self._stop = False
        self._event_count = 0
        #: lazily-cancelled entries still sitting in the queue lanes
        self._cancelled = 0
        #: bumped on every heap/timeline insertion; the batched dispatch
        #: loops compare it to detect barrier-invalidating mutations
        self._qgen = 0
        #: sticky: True once any event has ever fail()ed on this engine.
        #: While False the immediate lane provably holds successes only,
        #: so the batched drain can skip the per-event lost-error check.
        self._failed = False
        #: tracing sink read by every instrumented layer via ``engine.tracer``
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: correctness-checker pipeline read by the instrumented layers via
        #: ``engine.analysis`` (see :mod:`repro.analysis`); the shared null
        #: pipeline keeps the disabled path to one attribute read + branch
        self.analysis = NULL_ANALYSIS
        self._progress_t0 = 0.0
        #: CPU-charge sink of the code currently executing (see
        #: :mod:`repro.sim.context`); managed by executors, read by substrates.
        self.current_context = None

    # ------------------------------------------------------------------
    # time & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Number of events fired so far (diagnostics / budget guards).
        Lazily-cancelled events are discarded, never fired, and not counted."""
        return self._event_count

    @property
    def queue_depth(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return len(self._heap) + len(self._lane) - self._cancelled

    def _clean_heads(self) -> None:
        """Discard cancelled entries sitting at either lane head."""
        lane = self._lane
        while lane and lane[0]._cancelled:
            lane.popleft()
            self._cancelled -= 1
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
            self._cancelled -= 1

    @staticmethod
    def _lane_first(lt, lseq, he) -> bool:
        """True if a lane head at time ``lt`` with seq ``lseq`` precedes
        heap entry ``he`` in the total (time, priority, seq) order (the
        lane's priority is 0)."""
        ht = he[0]
        if lt != ht:
            return lt < ht
        hp = he[1]
        return hp > 0 or (hp == 0 and lseq < he[2])

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Cancelled entries surfacing at a lane head are discarded here, so
        ``peek()`` doubles as the lazy-deletion cleanup point for drivers
        that step the engine manually (``_run_traced``, test harnesses)."""
        self._clean_heads()
        lane = self._lane
        heap = self._heap
        if lane:
            # A live lane head's time is always exactly `now` (see the
            # lane-format note in __init__), so no entry time is stored.
            if heap and not self._lane_first(self._now, lane[0]._lseq, heap[0]):
                return heap[0][0]
            return self._now
        return heap[0][0] if heap else _INF

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: "Event", delay: float = 0.0, priority: int = PRIORITY_NORMAL) -> None:
        """Arrange for ``event`` to fire ``delay`` seconds from now."""
        # NOTE: Event.succeed and Timeout.__init__ (events.py) inline this
        # body — keep the validation and the lane rule in sync with them.
        # The single comparison rejects negative, inf, *and* NaN delays
        # (NaN fails every comparison): any of them would poison queue
        # ordering or park events at unreachable times.
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"non-finite or negative delay {delay!r}")
        self._seq += 1
        if delay == 0.0 and priority == 0:
            event._lseq = self._seq
            self._lane.append(event)
        else:
            self._qgen += 1
            heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def _check_batch(self, times, events) -> "np.ndarray":
        """Validate a ``schedule_batch`` call; returns ``times`` as float64.

        The contract: absolute times, non-decreasing, all ``>= now``, all
        finite. Checked in two vectorized passes (a NaN anywhere fails the
        first-element or diff comparison, an inf fails the isfinite check
        on the largest element)."""
        arr = np.asarray(times, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != len(events):
            raise SimulationError(
                f"schedule_batch: {arr.shape} times for {len(events)} events"
            )
        n = arr.shape[0]
        if n and not (
            arr[0] >= self._now
            and np.isfinite(arr[n - 1])
            and (n < 2 or bool(np.all(np.diff(arr) >= 0.0)))
        ):
            raise SimulationError(self._diagnose_batch(arr))
        return arr

    def _diagnose_batch(self, arr: "np.ndarray") -> str:
        """Name the first offending index of a rejected batch (shard-
        boundary batches are built far from where they are scheduled, so
        "times must be ..." alone is undebuggable)."""
        finite = np.isfinite(arr)
        if not finite.all():
            i = int(np.argmin(finite))
            return (
                f"schedule_batch: times[{i}]={arr[i]!r} is not finite "
                f"(batch of {arr.shape[0]})"
            )
        if arr[0] < self._now:
            return (
                f"schedule_batch: times[0]={arr[0]!r} < now={self._now!r} "
                f"(batch of {arr.shape[0]})"
            )
        decr = np.diff(arr) < 0.0
        i = int(np.argmax(decr))
        return (
            f"schedule_batch: times[{i + 1}]={arr[i + 1]!r} decreases from "
            f"times[{i}]={arr[i]!r} (batch of {arr.shape[0]})"
        )

    def schedule_batch(self, times, events) -> None:
        """Schedule ``events[i]`` to fire at *absolute* time ``times[i]``
        (normal priority).

        ``times`` must be non-decreasing, finite, and ``>= now`` — the
        contract batch producers (the vectorized wire path) satisfy by
        construction. Events receive consecutive ``seq`` numbers in array
        order, so the batch occupies one contiguous block of the total
        ``(time, priority, seq)`` order: the observable fire order is
        *identical* to calling :meth:`schedule` once per (time, event)
        pair in array order.
        """
        arr = self._check_batch(times, events)
        if arr.shape[0] == 0:
            # Empty batches are no-ops on both engines: bumping _qgen here
            # (while BatchedEngine early-returns) would desynchronize the
            # generation counters the differential oracle compares.
            return
        # Ascending pushes keep each heappush O(1) amortized (the new
        # entry never sifts past an earlier batch entry).
        self._qgen += 1
        seq = self._seq
        heap = self._heap
        push = heappush
        for t, ev in zip(arr.tolist(), events):
            seq += 1
            push(heap, (t, PRIORITY_NORMAL, seq, ev))
        self._seq = seq

    def schedule_at(self, event: "Event", t: float,
                    priority: int = PRIORITY_NORMAL) -> None:
        """Schedule ``event`` at *absolute* time ``t`` (exactly).

        Unlike ``schedule(event, delay=t - now)``, no ``now + (t - now)``
        float round-trip happens: the event fires at the bit-exact ``t``
        the caller computed. The receiver-ordered wire path and the shard
        coordinator depend on this — the same arrival record must fire at
        the same float time no matter which engine ("now") schedules it.
        """
        # Single comparison rejects past, inf, and NaN times.
        if not self._now <= t < _INF:
            raise SimulationError(
                f"schedule_at: time {t!r} not in [now={self._now!r}, inf)")
        self._seq += 1
        self._qgen += 1
        heappush(self._heap, (t, priority, self._seq, event))

    # ------------------------------------------------------------------
    # factories (sugar used throughout the code base)
    # ------------------------------------------------------------------
    def event(self) -> "Event":
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> "Event":
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        return Process(self, generator)

    def all_of(self, events: Iterable["Event"]) -> "Event":
        return AllOf(self, list(events))

    def any_of(self, events: Iterable["Event"]) -> "Event":
        return AnyOf(self, list(events))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _pop_next(self):
        """Pop and return ``(time, event)`` for the next live event, or
        ``None`` if both lanes are drained. Discards cancelled corpses."""
        lane = self._lane
        heap = self._heap
        while True:
            if lane:
                if heap and not self._lane_first(self._now, lane[0]._lseq, heap[0]):
                    entry = heappop(heap)
                    time, event = entry[0], entry[3]
                else:
                    event = lane.popleft()
                    time = self._now
            elif heap:
                entry = heappop(heap)
                time, event = entry[0], entry[3]
            else:
                return None
            if event._cancelled:
                self._cancelled -= 1
                continue
            return time, event

    def step(self) -> None:
        """Fire the single next live event (skipping cancelled entries)."""
        nxt = self._pop_next()
        if nxt is None:
            raise SimulationError("step() on an empty event queue")
        time, event = nxt
        if time < self._now:
            raise SimulationError("event queue time went backwards")
        self._now = time
        self._event_count += 1
        if self._trace is not None:
            self._trace(time, event)
        tr = self.tracer
        if tr.enabled:
            if tr.engine_events:
                tr.instant("sim", type(event).__name__, time)
            every = tr.progress_every
            if every is not None and self._event_count % every == 0:
                depth = self.queue_depth
                tr.span("sim", "progress", self._progress_t0, time,
                        events=self._event_count, queue_depth=depth)
                tr.counter("sim", "queue_depth", time, float(depth))
                self._progress_t0 = time
        event._fire()

    def budget_error(self, max_events: int) -> SimulationError:
        """The event-budget-exhausted error, including how many events are
        still queued but unfired — a drained-vs-live queue distinguishes a
        genuine deadlock from a model that is simply still making progress.
        Lazily-cancelled corpses are excluded from the count."""
        return self.diagnosed(
            f"event budget exhausted ({max_events} events fired) at "
            f"t={self._now:.6g}s with {self.queue_depth} queued-but-unfired "
            f"events still pending"
        )

    def diagnosed(self, msg: str) -> SimulationError:
        """``SimulationError(msg)``; with the analysis pipeline enabled the
        wait-for diagnosis is appended, so a drained queue or a budget hit
        caused by a communication deadlock names the cycle."""
        an = self.analysis
        if an.enabled:
            report = an.deadlock_report()
            if report:
                msg += "\n" + report
        return SimulationError(msg)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None,
            trace_every: Optional[int] = None,
            until_done: Optional[Iterable["Event"]] = None) -> float:
        """Run until the queue drains, ``until`` is reached, the event
        budget ``max_events`` is exhausted, or every event (process) in
        ``until_done`` has fired.

        The ``until_done`` stop is exact: the run ends right after the
        event whose callbacks complete the last watched process, and
        everything queued behind it stays queued — the state a
        ``peek()``/``step()`` driver that re-tests the processes after
        every event would leave (tests/test_stop_contract.py).

        ``trace_every`` emits a progress record to the engine's tracer every
        N fired events (independent of the tracer's own ``progress_every``),
        so long runs can be watched from the timeline.

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if trace_every is not None and trace_every < 1:
            raise SimulationError(f"trace_every must be >= 1, got {trace_every}")
        live = [0]
        if until_done is not None:
            def done(_event):
                live[0] -= 1
                if not live[0]:
                    # the _qgen bump ends the lane/timeline run in flight;
                    # the outer loops then see the flag
                    self._stop = True
                    self._qgen += 1

            for ev in until_done:
                if not ev._triggered:
                    live[0] += 1
                    ev.callbacks.append(done)
            self._stop = not live[0]
        self._running = True
        try:
            if (self._trace is None and trace_every is None
                    and not self.tracer.enabled):
                return self._run_fast(until, max_events)
            return self._run_traced(until, max_events, trace_every)
        finally:
            self._running = self._stop = False
            live[0] = 0  # watchers an aborted run leaves behind are inert

    def run_window(self, until: float,
                   max_events: Optional[int] = None) -> float:
        """Fire every event with time *strictly less than* ``until``; the
        clock never reaches ``until``.

        This is the conservative-window primitive the shard coordinator
        uses: a worker granted the window ``[lbts, t_end)`` must fire
        exactly the events below ``t_end`` and must *not* let its clock
        touch ``t_end`` (arrival records merged at the barrier are
        scheduled at absolute times ``>= t_end``, which ``schedule_at`` /
        ``schedule_batch`` validate against ``now``).

        Implemented on top of :meth:`run`: ``run(until=L)`` is inclusive of
        ``t == L``, so the window runs to ``nextafter(until, -inf)`` — the
        largest float below ``until`` — making ``t <= L`` equivalent to
        ``t < until`` exactly. ``now`` lands on that (sub-``until``) limit.
        """
        if not until > self._now:
            return self._now
        limit = math.nextafter(until, -_INF)
        if limit < self._now:
            return self._now
        return self.run(until=limit, max_events=max_events)

    def _run_fast(self, until: Optional[float], max_events: Optional[int]) -> float:
        """The hot loop: inlined dispatch, zero tracer attribute reads.

        Only entered when ``self._trace`` is None, the NULL_TRACER (or any
        disabled tracer) is installed, and no ``trace_every`` was requested
        — i.e. when per-event observation hooks cannot fire anyway. Event
        ordering, cancellation, ``until``, and budget semantics are
        identical to the traced loop (property-tested in
        tests/test_sim_engine.py).

        Invariants this loop relies on (enforced elsewhere):

        * :meth:`schedule` rejects negative/non-finite delays, so popped
          times are monotone by the lane invariants — no per-event
          time-went-backwards check is needed;
        * no :class:`Event` subclass overrides ``_fire`` — its body is
          inlined here (see docs/performance.md).
        """
        heap = self._heap
        lane = self._lane
        pop = heappop
        popleft = lane.popleft
        fired = 0
        try:
            if until is None and max_events is None:
                # Unbounded: the tightest loop. Lane-vs-heap selection is
                # inlined (same (time, priority, seq) order as _lane_first).
                while not self._stop:
                    if lane:
                        if heap:
                            he = heap[0]
                            lt = self._now
                            ht = he[0]
                            if lt < ht or (lt == ht and (
                                    he[1] > 0 or (he[1] == 0
                                                  and lane[0]._lseq < he[2]))):
                                event = popleft()
                                t = lt
                            else:
                                t, _prio, _seq, event = pop(heap)
                        else:
                            event = popleft()
                            t = self._now
                    elif heap:
                        t, _prio, _seq, event = pop(heap)
                    else:
                        break
                    if event._cancelled:
                        self._cancelled -= 1
                        continue
                    self._now = t
                    fired += 1
                    # --- inlined Event._fire() ---
                    event._triggered = True
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = ()
                        try:
                            (cb,) = callbacks
                        except ValueError:
                            for cb in callbacks:
                                cb(event)
                        else:
                            cb(event)
                    if event._ok is False and not event._defused:
                        raise event._value
                return self._now
            # Bounded: same dispatch plus until/budget guards.
            lane_first = self._lane_first
            limit = _INF if until is None else until
            budget = _INF if max_events is None else max_events
            while True:
                if self._stop:
                    return self._now
                if lane:
                    if heap and not lane_first(self._now, lane[0]._lseq,
                                               heap[0]):
                        t, _prio, _seq, event = pop(heap)
                        from_lane = False
                    else:
                        event = popleft()
                        t = self._now
                        from_lane = True
                elif heap:
                    t, _prio, _seq, event = pop(heap)
                    from_lane = False
                else:
                    break
                if event._cancelled:
                    self._cancelled -= 1
                    continue
                if t > limit:
                    # not consumed: fires on a later run()
                    if from_lane:
                        lane.appendleft(event)
                    else:
                        heappush(heap, (t, _prio, _seq, event))
                    self._now = limit
                    return limit
                if fired >= budget:
                    if from_lane:
                        lane.appendleft(event)
                    else:
                        heappush(heap, (t, _prio, _seq, event))
                    raise self.budget_error(max_events)
                self._now = t
                fired += 1
                # --- inlined Event._fire() ---
                event._triggered = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = ()
                    try:
                        (cb,) = callbacks
                    except ValueError:
                        for cb in callbacks:
                            cb(event)
                    else:
                        cb(event)
                if event._ok is False and not event._defused:
                    raise event._value
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            self._event_count += fired

    def _run_traced(self, until: Optional[float], max_events: Optional[int],
                    trace_every: Optional[int]) -> float:
        """Observable loop: one :meth:`step` per event, all hooks live."""
        fired = 0
        while not self._stop:
            next_time = self.peek()
            if next_time == _INF:
                if until is not None and until > self._now:
                    self._now = until
                break
            if until is not None and next_time > until:
                self._now = until
                break
            if max_events is not None and fired >= max_events:
                raise self.budget_error(max_events)
            self.step()
            fired += 1
            if trace_every is not None and fired % trace_every == 0:
                tr = self.tracer
                if tr.enabled:
                    tr.instant("sim", "run_progress", self._now,
                               fired=fired, queue_depth=self.queue_depth)
        return self._now

    def run_until_complete(self, process: "Process", max_events: Optional[int] = None) -> object:
        """Run until ``process`` terminates; return its value or re-raise its
        failure. Raises if the queue drains while the process is still alive
        (i.e. the model deadlocked)."""
        self.run(max_events=max_events, until_done=(process,))
        if not process.triggered:
            raise self.diagnosed(
                f"deadlock: event queue drained at t={self._now:.6g}s "
                f"with process {process!r} still pending")
        if not process.ok:
            raise process.value  # type: ignore[misc]
        return process.value


class BatchedEngine(ObjectEngine):
    """Array-native engine: adds a sorted *timeline lane* and batch-pop
    dispatch on top of :class:`ObjectEngine`.

    The timeline lane is a ring of three parallel arrays (times, seqs,
    events) plus a head cursor. :meth:`schedule_batch` appends whole
    sorted batches in O(n) with no heap sifting; the run loop pops from
    the head in O(1). Consumed slots are reclaimed either wholesale when
    the lane drains or by compacting when the dead prefix dominates —
    never by per-pop shifting. :attr:`queue_depth`/:meth:`peek` stay
    O(1)/O(corpses-at-head): live counts come from ``len - head`` and the
    shared lazy-cancellation counter, not from scanning the ring.

    Dispatch fires *runs* of events from one lane through a tight inlined
    loop, bounded by a cached cross-lane barrier key (the head of the
    closest other lane). The barrier is recomputed only when a fired
    callback mutates another lane (detected by length change), so a
    delay-0 storm or a wire batch pays the three-way comparison once per
    run, not once per event. Fire order is bit-identical to
    :class:`ObjectEngine` (property-tested in tests/test_properties.py).
    """

    __slots__ = ("_tl_times", "_tl_seqs", "_tl_events", "_tl_head")

    def __init__(self, trace: Optional[Callable[[float, "Event"], None]] = None,
                 tracer: Optional[Tracer] = None):
        super().__init__(trace, tracer)
        #: timeline lane: parallel arrays sorted by (time, seq), live
        #: entries are indices [_tl_head, len)
        self._tl_times: list = []
        self._tl_seqs: list = []
        self._tl_events: list = []
        self._tl_head: int = 0

    # ------------------------------------------------------------------
    # introspection (O(live), never scans the ring)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return (len(self._heap) + len(self._lane)
                + len(self._tl_times) - self._tl_head - self._cancelled)

    def _clean_heads(self) -> None:
        super()._clean_heads()
        head = self._tl_head
        evs = self._tl_events
        n = len(evs)
        while head < n and evs[head]._cancelled:
            head += 1
            self._cancelled -= 1
        self._tl_head = head

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        ``time`` is the primary sort key, so the minimum over the three
        lane-head times *is* the next event's time — no full-key compare
        needed here."""
        self._clean_heads()
        best = _INF
        heap = self._heap
        if heap:
            best = heap[0][0]
        if self._lane and self._now < best:
            # a live lane head's fire time is always exactly `now`
            best = self._now
        head = self._tl_head
        if head < len(self._tl_times) and self._tl_times[head] < best:
            best = self._tl_times[head]
        return best

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _compact_tl(self) -> None:
        """Reclaim the consumed prefix when it dominates the ring, so the
        ring holds O(live) slots even when the lane never drains.

        Called on append, also under a running dispatch loop (jobs run
        inside :meth:`run`): every append bumps ``_qgen``, which sends the
        loop back to its outer boundary — where it re-reads the head cursor
        and length — before it touches the ring again."""
        head = self._tl_head
        if head and head * 2 >= len(self._tl_times):
            del self._tl_times[:head]
            del self._tl_seqs[:head]
            del self._tl_events[:head]
            self._tl_head = 0

    def schedule_batch(self, times, events) -> None:
        arr = self._check_batch(times, events)
        n = arr.shape[0]
        if n == 0:
            return
        tlt = self._tl_times
        if len(tlt) > self._tl_head and arr[0] < tlt[-1]:
            # Out of order vs. the queued timeline tail: preserve the
            # total order by routing through the heap instead (rare —
            # only overlapping wire batches from unrelated clusters).
            super().schedule_batch(arr, events)
            return
        self._compact_tl()
        self._qgen += 1
        seq0 = self._seq
        self._seq = seq0 + n
        tlt.extend(arr.tolist())
        self._tl_seqs.extend(range(seq0 + 1, seq0 + n + 1))
        self._tl_events.extend(events)

    schedule_batch.__doc__ = ObjectEngine.schedule_batch.__doc__

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _pop_next(self):
        """Pop ``(time, event)`` for the next live event across all three
        lanes, or ``None`` when drained. Used by :meth:`step` (the
        observable path); the fast loops below inline the same order."""
        lane = self._lane
        heap = self._heap
        tlt = self._tl_times
        tls = self._tl_seqs
        tle = self._tl_events
        while True:
            head = self._tl_head
            src = 0
            key = None
            if head < len(tlt):
                key = (tlt[head], 0, tls[head])
                src = 2
            if lane:
                lk = (self._now, 0, lane[0]._lseq)
                if src == 0 or lk < key:
                    key = lk
                    src = 1
            if heap:
                he = heap[0]
                hk = (he[0], he[1], he[2])
                if src == 0 or hk < key:
                    src = 3
            if src == 0:
                return None
            if src == 1:
                event = lane.popleft()
                time = self._now
            elif src == 2:
                time, event = tlt[head], tle[head]
                self._tl_head = head + 1
                if self._tl_head == len(tlt):
                    tlt.clear()
                    tls.clear()
                    tle.clear()
                    self._tl_head = 0
            else:
                entry = heappop(heap)
                time, event = entry[0], entry[3]
            if event._cancelled:
                self._cancelled -= 1
                continue
            return time, event

    def _run_fast(self, until: Optional[float], max_events: Optional[int]) -> float:
        if until is None and max_events is None:
            return self._run_fast_unbounded()
        return self._run_fast_bounded(until, max_events)

    def _run_fast_unbounded(self) -> float:
        """Batch-pop hot loop (see class docstring for the barrier scheme)."""
        heap = self._heap
        lane = self._lane
        tlt = self._tl_times
        tls = self._tl_seqs
        tle = self._tl_events
        pop = heappop
        popleft = lane.popleft
        appendleft = lane.appendleft
        fired = 0
        try:
            while True:
                if self._stop:
                    return self._now
                th = self._tl_head
                ntl = len(tlt)
                if th >= ntl:
                    if ntl:
                        # drained: drop fired-event references wholesale
                        tlt.clear()
                        tls.clear()
                        tle.clear()
                        self._tl_head = th = ntl = 0
                    if lane:
                        src = 1
                    elif heap:
                        src = 3
                    else:
                        break
                elif lane:
                    src = 2 if ((tlt[th], tls[th])
                                < (self._now, lane[0]._lseq)) else 1
                else:
                    src = 2
                if src != 3 and heap:
                    he = heap[0]
                    if src == 1:
                        ct, cs = self._now, lane[0]._lseq
                    else:
                        ct, cs = tlt[th], tls[th]
                    ht = he[0]
                    hp = he[1]
                    if not (ct < ht or (ct == ht and (
                            hp > 0 or (hp == 0 and cs < he[2])))):
                        src = 3
                if src == 3:
                    # single heap pop: heap entries (timers, urgent
                    # bookkeeping) rarely arrive in runs
                    t, _prio, _seq, event = pop(heap)
                    if event._cancelled:
                        self._cancelled -= 1
                        continue
                    self._now = t
                    fired += 1
                    # --- inlined Event._fire() ---
                    event._triggered = True
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = ()
                        try:
                            (cb,) = callbacks
                        except ValueError:
                            for cb in callbacks:
                                cb(event)
                        else:
                            cb(event)
                    if event._ok is False and not event._defused:
                        raise event._value
                    continue
                # Barrier: full (time, priority, seq) key of the closest
                # head NOT in the chosen lane, cached in locals.
                bt = _INF
                bp = 0
                bseq = 0
                if heap:
                    he = heap[0]
                    bt, bp, bseq = he[0], he[1], he[2]
                if src == 1:
                    if th < ntl:
                        tt = tlt[th]
                        if tt < bt or (tt == bt and (
                                bp > 0 or (bp == 0 and tls[th] < bseq))):
                            bt, bp, bseq = tt, 0, tls[th]
                    # Mutation sentinels: the barrier only moves if the
                    # heap head is *replaced* (a push of an earlier entry;
                    # callbacks cannot pop the heap) or the empty timeline
                    # gains entries. A non-empty timeline needs no check —
                    # schedule_batch appends strictly after its own head,
                    # which the barrier already bounds.
                    g0 = self._qgen
                    # ---- immediate-lane run ----
                    # Every live lane entry shares time == now: an entry's
                    # time is the `now` it was appended at, time is
                    # monotone, and nothing later may overtake — so `now`
                    # already equals each entry's time here (no `self._now`
                    # store needed; property-tested).
                    if self._now < bt and not self._cancelled:
                        # Strict barrier, corpse-free: with the closest
                        # rival strictly later than now, no entry in this
                        # run — including ones appended by callbacks
                        # mid-run — can be blocked, so skip the per-event
                        # key compare; with zero live corpses anywhere,
                        # skip the per-event cancel flag read too.
                        # Everything that could invalidate either fact —
                        # an urgent delay-0 push, a timeline batch landing
                        # at now, Event.cancel(), or Event.fail() — bumps
                        # _qgen.
                        if self._failed:
                            while lane:
                                event = popleft()
                                fired += 1
                                # --- inlined Event._fire() ---
                                event._triggered = True
                                callbacks = event.callbacks
                                if callbacks:
                                    event.callbacks = ()
                                    try:
                                        (cb,) = callbacks
                                    except ValueError:
                                        for cb in callbacks:
                                            cb(event)
                                    else:
                                        cb(event)
                                if event._ok is False and not event._defused:
                                    raise event._value
                                if self._qgen != g0:
                                    break
                        else:
                            # No event has ever fail()ed on this engine,
                            # so the lane provably holds successes only —
                            # drop the per-event lost-error check as well.
                            while lane:
                                event = popleft()
                                fired += 1
                                # --- inlined Event._fire() ---
                                event._triggered = True
                                callbacks = event.callbacks
                                if callbacks:
                                    event.callbacks = ()
                                    try:
                                        (cb,) = callbacks
                                    except ValueError:
                                        for cb in callbacks:
                                            cb(event)
                                    else:
                                        cb(event)
                                if self._qgen != g0:
                                    break
                    else:
                        # Per-event compare (barrier tie at now, or
                        # corpses present). Lane entries all fire at now
                        # with priority 0, so the full-key compare
                        # reduces to a loop-invariant strictness bit
                        # plus per-entry seq order.
                        strict = self._now < bt or bp > 0
                        while lane:
                            event = popleft()
                            if not (strict or event._lseq < bseq):
                                appendleft(event)
                                break
                            if event._cancelled:
                                self._cancelled -= 1
                                continue
                            fired += 1
                            # --- inlined Event._fire() ---
                            event._triggered = True
                            callbacks = event.callbacks
                            if callbacks:
                                event.callbacks = ()
                                try:
                                    (cb,) = callbacks
                                except ValueError:
                                    for cb in callbacks:
                                        cb(event)
                                else:
                                    cb(event)
                            if event._ok is False and not event._defused:
                                raise event._value
                            if self._qgen != g0:
                                break
                else:
                    if lane:
                        lt = self._now
                        lseq = lane[0]._lseq
                        if lt < bt or (lt == bt and (
                                bp > 0 or (bp == 0 and lseq < bseq))):
                            bt, bp, bseq = lt, 0, lseq
                    # Same sentinel scheme as the lane run: new lane
                    # appends land behind the lane head the barrier
                    # already covers, so only empty-to-non-empty matters.
                    g0 = self._qgen
                    # truthy only if the empty-at-entry immediate lane
                    # gained entries — a non-empty lane's head is already
                    # covered by the barrier
                    watch = () if lane else lane
                    # ---- timeline run ----
                    # The head cursor is persisted *before* each fire, not
                    # held in a local: callbacks may read queue_depth or
                    # call peek(), whose _clean_heads itself advances the
                    # head past corpses — a local cursor would go stale
                    # and double-count those corpses on resume.
                    while True:
                        th = self._tl_head
                        if th >= ntl:
                            break
                        t = tlt[th]
                        if not (t < bt or (t == bt and (
                                bp > 0 or (bp == 0 and tls[th] < bseq)))):
                            break
                        event = tle[th]
                        self._tl_head = th + 1
                        if event._cancelled:
                            self._cancelled -= 1
                            continue
                        self._now = t
                        fired += 1
                        # --- inlined Event._fire() ---
                        event._triggered = True
                        callbacks = event.callbacks
                        if callbacks:
                            event.callbacks = ()
                            try:
                                (cb,) = callbacks
                            except ValueError:
                                for cb in callbacks:
                                    cb(event)
                            else:
                                cb(event)
                        if event._ok is False and not event._defused:
                            raise event._value
                        if self._qgen != g0 or watch:
                            break
            return self._now
        finally:
            self._event_count += fired

    def _run_fast_bounded(self, until: Optional[float],
                          max_events: Optional[int]) -> float:
        """Batch-pop loop with ``until``/budget guards. Unconsumed events
        are pushed back so a later ``run()`` resumes exactly where this
        one stopped."""
        heap = self._heap
        lane = self._lane
        tlt = self._tl_times
        tls = self._tl_seqs
        tle = self._tl_events
        pop = heappop
        popleft = lane.popleft
        appendleft = lane.appendleft
        limit = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        fired = 0
        try:
            while True:
                if self._stop:
                    return self._now
                th = self._tl_head
                ntl = len(tlt)
                if th >= ntl:
                    if ntl:
                        tlt.clear()
                        tls.clear()
                        tle.clear()
                        self._tl_head = th = ntl = 0
                    if lane:
                        src = 1
                    elif heap:
                        src = 3
                    else:
                        break
                elif lane:
                    src = 2 if ((tlt[th], tls[th])
                                < (self._now, lane[0]._lseq)) else 1
                else:
                    src = 2
                if src != 3 and heap:
                    he = heap[0]
                    if src == 1:
                        ct, cs = self._now, lane[0]._lseq
                    else:
                        ct, cs = tlt[th], tls[th]
                    ht = he[0]
                    hp = he[1]
                    if not (ct < ht or (ct == ht and (
                            hp > 0 or (hp == 0 and cs < he[2])))):
                        src = 3
                if src == 3:
                    t, _prio, _seq, event = pop(heap)
                    if event._cancelled:
                        self._cancelled -= 1
                        continue
                    if t > limit:
                        heappush(heap, (t, _prio, _seq, event))
                        self._now = limit
                        return limit
                    if fired >= budget:
                        heappush(heap, (t, _prio, _seq, event))
                        raise self.budget_error(max_events)
                    self._now = t
                    fired += 1
                    event._triggered = True
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = ()
                        try:
                            (cb,) = callbacks
                        except ValueError:
                            for cb in callbacks:
                                cb(event)
                        else:
                            cb(event)
                    if event._ok is False and not event._defused:
                        raise event._value
                    continue
                bt = _INF
                bp = 0
                bseq = 0
                if heap:
                    he = heap[0]
                    bt, bp, bseq = he[0], he[1], he[2]
                if src == 1:
                    if th < ntl:
                        tt = tlt[th]
                        if tt < bt or (tt == bt and (
                                bp > 0 or (bp == 0 and tls[th] < bseq))):
                            bt, bp, bseq = tt, 0, tls[th]
                    g0 = self._qgen
                    # all lane entries fire at now with priority 0 (see
                    # the unbounded loop): hoist the invariant parts of
                    # the barrier compare and the `until` guard
                    lt = self._now
                    strict = lt < bt or bp > 0
                    while lane:
                        event = popleft()
                        if not (strict or event._lseq < bseq):
                            appendleft(event)
                            break
                        if event._cancelled:
                            self._cancelled -= 1
                            continue
                        if lt > limit:
                            appendleft(event)
                            self._now = limit
                            return limit
                        if fired >= budget:
                            appendleft(event)
                            raise self.budget_error(max_events)
                        # `now` already equals lt (see unbounded loop)
                        fired += 1
                        event._triggered = True
                        callbacks = event.callbacks
                        if callbacks:
                            event.callbacks = ()
                            try:
                                (cb,) = callbacks
                            except ValueError:
                                for cb in callbacks:
                                    cb(event)
                            else:
                                cb(event)
                        if event._ok is False and not event._defused:
                            raise event._value
                        if self._qgen != g0:
                            break
                else:
                    if lane:
                        lt = self._now
                        lseq = lane[0]._lseq
                        if lt < bt or (lt == bt and (
                                bp > 0 or (bp == 0 and lseq < bseq))):
                            bt, bp, bseq = lt, 0, lseq
                    g0 = self._qgen
                    # truthy only if the empty-at-entry immediate lane
                    # gained entries — a non-empty lane's head is already
                    # covered by the barrier
                    watch = () if lane else lane
                    # head persisted per event — see the unbounded loop
                    while True:
                        th = self._tl_head
                        if th >= ntl:
                            break
                        t = tlt[th]
                        if not (t < bt or (t == bt and (
                                bp > 0 or (bp == 0 and tls[th] < bseq)))):
                            break
                        event = tle[th]
                        self._tl_head = th + 1
                        if event._cancelled:
                            self._cancelled -= 1
                            continue
                        if t > limit:
                            self._tl_head = th
                            self._now = limit
                            return limit
                        if fired >= budget:
                            self._tl_head = th
                            raise self.budget_error(max_events)
                        self._now = t
                        fired += 1
                        event._triggered = True
                        callbacks = event.callbacks
                        if callbacks:
                            event.callbacks = ()
                            try:
                                (cb,) = callbacks
                            except ValueError:
                                for cb in callbacks:
                                    cb(event)
                            else:
                                cb(event)
                        if event._ok is False and not event._defused:
                            raise event._value
                        if self._qgen != g0 or watch:
                            break
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            self._event_count += fired


#: True when ``REPRO_ENGINE=sharded`` — the harness then defaults eligible
#: jobs to the sharded coordinator (``JobSpec.shards`` still wins when set).
#: Shard *workers* run plain :class:`BatchedEngine` instances, so the alias
#: below resolves to :class:`BatchedEngine` under this setting.
SHARDED_DEFAULT = False

#: Shard count used when ``REPRO_ENGINE=sharded`` selects sharding without
#: an explicit ``JobSpec(shards=N)``; override with ``REPRO_SHARDS``.
DEFAULT_SHARDS = max(1, int(os.environ.get("REPRO_SHARDS", "2")))


def _default_engine_class():
    """Resolve the :data:`Engine` alias from ``REPRO_ENGINE``.

    ``batched`` (the default) selects :class:`BatchedEngine`; ``object``
    selects the per-event oracle; ``sharded`` selects
    :class:`BatchedEngine` per shard and flips :data:`SHARDED_DEFAULT` so
    the harness routes eligible jobs through ``repro.sim.shard``. Read
    once at import — tests that need both instantiate the classes
    directly."""
    global SHARDED_DEFAULT
    name = os.environ.get("REPRO_ENGINE", "batched").strip().lower()
    if name in ("", "batched"):
        return BatchedEngine
    if name == "sharded":
        SHARDED_DEFAULT = True
        return BatchedEngine
    if name == "object":
        return ObjectEngine
    raise SimulationError(
        f"REPRO_ENGINE={name!r} not recognized "
        "(expected 'object', 'batched', or 'sharded')"
    )


#: The engine class the rest of the code base instantiates; resolved from
#: the ``REPRO_ENGINE`` environment variable at import time.
Engine = _default_engine_class()

# The event classes need ``Engine`` (above) to exist before they can be
# defined; the factories bind them here, once, instead of per call.
from repro.sim.events import AllOf, AnyOf, Event, Timeout  # noqa: E402
from repro.sim.process import Process  # noqa: E402
