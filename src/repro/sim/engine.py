"""The discrete-event engine.

A single :class:`Engine` owns simulated time and its event queue.
Everything that "happens" in the simulated cluster is an
:class:`~repro.sim.events.Event` scheduled on this queue.

Ordering is the deterministic triple ``(time, priority, seq)``: ``seq`` is a
monotonically increasing insertion counter, so events scheduled for the same
instant fire in insertion order unless an explicit priority says otherwise.
Lower priority values fire first.

The queue has two lanes under that one order (docs/performance.md):

* Normal-priority events scheduled with ``delay == 0`` — the dominant
  class in this code base: condition triggers, completion notifications,
  park/unpark signals — go to a FIFO *immediate lane* (a deque of bare
  events; O(1) in, O(1) out). Everything else goes to the binary heap.
  Because simulated time never runs backwards and ``seq`` grows
  monotonically, the lane is always sorted by ``(time, seq)`` by
  construction and every live lane entry fires at exactly ``now``;
  dispatch compares the lane heads on the full ``(time, priority, seq)``
  key, so the firing order is *identical* to a single-heap engine
  (tests/test_properties.py replays randomized schedules against the
  one-heap reference in tests/reference/heap_engine.py).
* Cancellation is *lazy*: :meth:`Event.cancel` only flags the entry; the
  engine discards flagged entries as they surface at a lane head, so
  defusing a timeout costs O(1) instead of an O(n) queue rebuild.
  Introspection (:meth:`Engine.peek`, :attr:`Engine.queue_depth`,
  :meth:`Engine.budget_error`) reports *live* events only, from a counter
  that never scans a lane, so deadlock diagnostics never count corpses.

:meth:`Engine.run` holds the one dispatch loop: local bindings, the stop
flag tested once per event, ``until`` and ``max_events`` as compares
against ``inf``-defaulted locals, :meth:`Event._fire` inlined (no Event
subclass overrides it), and a per-event observation hook that is ``None``
unless something can actually emit per event — so a traced, checked or
``perf=True`` job executes the same loop body as a plain one.
"""

from __future__ import annotations

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


class Engine:
    """Deterministic discrete-event simulation engine.

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
        "_fired_seq",
        "_trace",
        "_running",
        "_stop",
        "_event_count",
        "_cancelled",
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
        #: seq of the last normal-priority event fired at ``now``: which
        #: reserved positions are passed (``repro.mpi.requests.Request.done``).
        #: An urgent event overtakes its instant's normal ones (slot kept, 0
        #: at a new time); a low-priority one follows all queued so far
        self._fired_seq: int = 0
        self._trace = trace
        self._running = False
        #: set by the ``run(until_done=...)`` watcher when the last watched
        #: process completes; the dispatch loop tests it once per event
        self._stop = False
        self._event_count = 0
        #: lazily-cancelled entries still sitting in the queue lanes
        self._cancelled = 0
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

    def _next_is_lane(self) -> Optional[bool]:
        """Discard cancelled entries at both lane heads, then say where the
        next live event sits in ``(time, priority, seq)`` order: ``True`` the
        lane head (it fires at ``now``, priority 0, seq ``_lseq``), ``False``
        the heap head, ``None`` if the queue is drained. :meth:`run` inlines
        the same comparison."""
        lane = self._lane
        while lane and lane[0]._cancelled:
            lane.popleft()
            self._cancelled -= 1
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
            self._cancelled -= 1
        if not heap:
            return True if lane else None
        if not lane:
            return False
        ht, hp, hseq, _ = heap[0]
        return self._now < ht or (self._now == ht and (
            hp > 0 or (hp == 0 and lane[0]._lseq < hseq)))

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Cancelled entries surfacing at a lane head are discarded here, so
        ``peek()`` doubles as the lazy-deletion cleanup point for drivers
        that step the engine manually (test harnesses, examples)."""
        from_lane = self._next_is_lane()
        if from_lane is None:
            return _INF
        return self._now if from_lane else self._heap[0][0]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: "Event", delay: float = 0.0, priority: int = PRIORITY_NORMAL) -> None:
        """Arrange for ``event`` to fire ``delay`` seconds from now."""
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
            heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def _diagnose_batch(self, arr: "np.ndarray") -> str:
        """Name the first offending index of a rejected batch (shard-
        boundary batches are built far from where they are scheduled, so
        "times must be ..." alone is undebuggable)."""
        size = f"(batch of {arr.shape[0]})"
        finite = np.isfinite(arr)
        if not finite.all():
            i = int(np.argmin(finite))
            return f"schedule_batch: times[{i}]={arr[i]!r} is not finite {size}"
        if arr[0] < self._now:
            return f"schedule_batch: times[0]={arr[0]!r} < now={self._now!r} {size}"
        i = int(np.argmax(np.diff(arr) < 0.0))
        return (f"schedule_batch: times[{i + 1}]={arr[i + 1]!r} decreases from "
                f"times[{i}]={arr[i]!r} {size}")

    def schedule_batch(self, times, events) -> None:
        """Schedule ``events[i]`` to fire at *absolute* time ``times[i]``
        (normal priority).

        ``times`` must be non-decreasing, finite, and ``>= now`` — the
        contract batch producers (the vectorized wire path) satisfy by
        construction, checked here in two vectorized passes (a NaN anywhere
        fails the first-element or diff comparison, an inf the isfinite
        check on the largest element). Events receive consecutive ``seq``
        numbers in array order, so the batch occupies one contiguous block
        of the total ``(time, priority, seq)`` order: the observable fire
        order is *identical* to calling :meth:`schedule` once per (time,
        event) pair in array order.
        """
        arr = np.asarray(times, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != len(events):
            raise SimulationError(
                f"schedule_batch: {arr.shape} times for {len(events)} events")
        n = arr.shape[0]
        if n and not (arr[0] >= self._now and np.isfinite(arr[n - 1])
                      and (n < 2 or bool(np.all(np.diff(arr) >= 0.0)))):
            raise SimulationError(self._diagnose_batch(arr))
        # Ascending pushes keep each heappush O(1) amortized (the new
        # entry never sifts past an earlier batch entry).
        seq = self._seq
        heap = self._heap
        for t, ev in zip(arr.tolist(), events):
            seq += 1
            heappush(heap, (t, PRIORITY_NORMAL, seq, ev))
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
    def step(self) -> None:
        """Fire the single next live event (skipping cancelled entries).

        For manual drivers (tests, examples); :meth:`run` never calls it."""
        from_lane = self._next_is_lane()
        if from_lane is None:
            raise SimulationError("step() on an empty event queue")
        if from_lane:
            event = self._lane.popleft()
            self._fired_seq = event._lseq
        else:
            t, prio, seq, event = heappop(self._heap)
            if prio == 0:
                self._fired_seq = seq
            elif prio > 0 or t > self._now:
                self._fired_seq = self._seq if prio > 0 else 0
            self._now = t
        self._event_count += 1
        if self._observing():
            self._observe(self._now, event, self._event_count)
        event._fire()

    def _observing(self) -> bool:
        """True if anything can emit a record per fired event: a ``trace``
        callable, or an enabled tracer with ``engine_events`` or a
        ``progress_every`` period. A tracer that only collects the other
        layers' emits (``progress_every=None``: the ``PerfTracer`` of a
        ``perf=True`` job) leaves the dispatch loop hook-free."""
        tr = self.tracer
        return self._trace is not None or (tr.enabled and (
            tr.engine_events or tr.progress_every is not None))

    def _observe(self, time: float, event: "Event", count: int) -> None:
        """The per-event hook: ``event`` is the ``count``-th event fired,
        popped and about to run its callbacks at ``time``."""
        if self._trace is not None:
            self._trace(time, event)
        tr = self.tracer
        if tr.enabled:
            if tr.engine_events:
                tr.instant("sim", type(event).__name__, time)
            every = tr.progress_every
            if every is not None and count % every == 0:
                depth = self.queue_depth
                tr.span("sim", "progress", self._progress_t0, time,
                        events=count, queue_depth=depth)
                tr.counter("sim", "queue_depth", time, float(depth))
                self._progress_t0 = time

    def budget_error(self, max_events: int) -> SimulationError:
        """The event-budget-exhausted error, including how many events are
        still queued but unfired — a drained-vs-live queue distinguishes a
        genuine deadlock from a model that is simply still making progress.
        Lazily-cancelled corpses are excluded from the count."""
        return self.diagnosed(
            f"event budget exhausted ({max_events} events fired) at "
            f"t={self._now:.6g}s with {self.queue_depth} queued-but-unfired "
            f"events still pending")

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
            until_done: Optional[Iterable["Event"]] = None) -> float:
        """Run until the queue drains, ``until`` is reached, the event
        budget ``max_events`` is exhausted, or every event (process) in
        ``until_done`` has fired.

        The ``until_done`` stop is exact: the run ends right after the
        event whose callbacks complete the last watched process, and
        everything queued behind it stays queued — the state a
        ``peek()``/``step()`` driver that re-tests the processes after
        every event would leave (tests/test_stop_contract.py).

        Returns the simulated time at which the run stopped.

        Invariants the loop relies on (enforced elsewhere):

        * :meth:`schedule`, :meth:`schedule_at` and :meth:`schedule_batch`
          reject past and non-finite times, so popped times are monotone by
          the lane invariants — no per-event time-went-backwards check;
        * no :class:`Event` subclass overrides ``_fire`` — its body is
          inlined here (see docs/performance.md).
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        live = [0]
        if until_done is not None:
            def done(_event):
                live[0] -= 1
                if not live[0]:
                    self._stop = True

            for ev in until_done:
                if not ev._triggered:
                    live[0] += 1
                    ev.callbacks.append(done)
            self._stop = not live[0]
        limit = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        hook = self._observe if self._observing() else None
        heap = self._heap
        lane = self._lane
        pop = heappop
        popleft = lane.popleft
        fired = 0
        self._running = True
        try:
            while not self._stop:
                # Next entry in (time, priority, seq) order: the lane head
                # fires at `now` with priority 0 and seq `_lseq`; `entry`
                # stays None when it wins (same rule as _next_is_lane).
                entry = None
                if lane:
                    if heap:
                        he = heap[0]
                        t = self._now
                        ht = he[0]
                        if not (t < ht or (t == ht and (
                                he[1] > 0 or (he[1] == 0
                                              and lane[0]._lseq < he[2])))):
                            entry = pop(heap)
                elif heap:
                    entry = pop(heap)
                else:
                    if until is not None and until > self._now:
                        self._now = until
                        self._fired_seq = self._seq
                    break
                if entry is None:
                    event = popleft()
                    t = self._now
                else:
                    t = entry[0]
                    event = entry[3]
                if event._cancelled:
                    self._cancelled -= 1
                    continue
                if t > limit or fired >= budget:
                    # not consumed: fires on a later run()
                    if entry is None:
                        lane.appendleft(event)
                    else:
                        heappush(heap, entry)
                    if t > limit:
                        self._fired_seq = self._seq  # all slots <= limit passed
                        self._now = limit
                        break
                    raise self.budget_error(max_events)
                if entry is None:
                    self._fired_seq = event._lseq
                elif entry[1] == 0:
                    self._fired_seq = entry[2]
                elif entry[1] > 0 or t > self._now:  # see _fired_seq
                    self._fired_seq = self._seq if entry[1] > 0 else 0
                self._now = t
                fired += 1
                if hook is not None:
                    hook(t, event, self._event_count + fired)
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
        finally:
            self._event_count += fired
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
        return self.run(until=math.nextafter(until, -_INF),
                        max_events=max_events)

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


# The event classes need ``Engine`` (above) to exist before they can be
# defined; the factories bind them here, once, instead of per call.
from repro.sim.events import AllOf, AnyOf, Event, Timeout  # noqa: E402
from repro.sim.process import Process  # noqa: E402
