"""Worker cores and the ready queue.

Each runtime owns ``n_cores`` :class:`Worker` cores. A worker is a state
machine driven by engine callbacks, not a process: :meth:`ReadyQueue.push`
hands a task straight to the core that has been idle longest, and a core
that ends a task takes the next one in the same callback. A core never
has more than one dispatch or charge pending, so it re-arms one
``Timeout``, its *wake*:

* dispatch — the wake fires ``dispatch_overhead`` after the core took the
  task (with no overhead it takes the delay-0 lane slot), and the body
  runs from that callback;
* charges — CPU charged by substrate calls during a synchronous step is
  realized as core-busy time by re-arming the wake; when it fires, the
  step's outcome is settled and a freed core takes its next task.

A plain-callable body therefore costs two events and no process resume.
Generator bodies are stepped from the same callbacks, with three kinds of
yieldable:

* a sim :class:`~repro.sim.events.Event` — blocking call (e.g. ``MPI_Wait``
  in a fork-join region): the core stays busy until the event fires;
* :class:`~repro.tasking.task.Sleep` — ``wait_for_us``: the task leaves the
  core and re-enters the (high-priority) ready queue when the time elapses;
* :class:`~repro.tasking.task.BlockOn` — park until an event fires, then
  re-enter the ready queue (library pollers with no pending work).

The core's CPU sink is ``engine.current_context`` during each of its
callbacks, so an onready charge made while a completion releases
successors is paid by the next step on that core (docs/performance.md,
"A worker core is a callback").
"""

from __future__ import annotations

from collections import deque
from types import GeneratorType
from typing import Deque, Optional, TYPE_CHECKING

from repro.sim.context import AccumulatingSink
from repro.sim.engine import PRIORITY_URGENT
from repro.sim.events import Event, Timeout
from repro.tasking.task import BlockOn, Sleep, Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.tasking.runtime import Runtime

#: the wake's item while it is a dispatch: the task has not started yet
_DISPATCH = object()
#: a step's outcome when the body returned
_DONE = object()


class ReadyQueue:
    """Two-level FIFO: resumed/priority tasks before ordinary ready tasks."""

    __slots__ = ("_high", "_normal", "_idle")

    def __init__(self) -> None:
        self._high: Deque[Task] = deque()
        self._normal: Deque[Task] = deque()
        #: cores with nothing to run, longest idle first
        self._idle: Deque[Worker] = deque()

    def push(self, task: Task, high: bool = False) -> None:
        if self._idle:
            self._idle.popleft()._take(task)
            return
        (self._high if high else self._normal).append(task)


class Worker:
    """One simulated core executing tasks."""

    __slots__ = ("runtime", "index", "lane", "engine", "sink", "busy_time",
                 "tasks_run", "task", "_dispatch", "_item", "_since",
                 "_held_at", "_wake", "_wake_cbs", "_held_cb")

    def __init__(self, runtime: "Runtime", index: int):
        self.runtime = runtime
        self.index = index
        self.lane = f"w{index}"
        eng = self.engine = runtime.engine
        self.sink = AccumulatingSink()
        self.busy_time = 0.0
        self.tasks_run = 0
        #: the task on this core, ``None`` while idle
        self.task: Optional[Task] = None
        #: ``dispatch_overhead``, read when the core starts
        self._dispatch = 0.0
        #: what the pending wake settles: ``_DISPATCH`` or a step's outcome
        self._item: object = None
        #: start of the current on-core interval
        self._since = 0.0
        #: when the current busy-held event was yielded
        self._held_at = 0.0
        #: the one Timeout this core re-arms for every dispatch and charge
        wake = self._wake = Timeout.__new__(Timeout)
        Event.__init__(wake, eng)
        wake._ok = wake._scheduled = True
        self._wake_cbs = (self._on_wake,)
        self._held_cb = self._on_held
        start = Event(eng)
        start.callbacks.append(self._on_start)
        start.succeed(priority=PRIORITY_URGENT)

    # ------------------------------------------------------------------
    # engine callbacks: each runs with this core's sink as the context
    # ------------------------------------------------------------------
    def _on_start(self, _ev: Event) -> None:
        eng = self.engine
        prev, eng.current_context = eng.current_context, self.sink
        try:
            self._dispatch = self.runtime.config.dispatch_overhead
            self._next()
        finally:
            eng.current_context = prev

    def _on_wake(self, _ev: Event) -> None:
        eng = self.engine
        prev, eng.current_context = eng.current_context, self.sink
        try:
            item = self._item
            if item is _DISPATCH:
                self._run(self.task)
            else:
                self._settle(item)
        finally:
            eng.current_context = prev

    def _on_held(self, ev: Event) -> None:
        """The event a body busy-held the core on fired."""
        if ev._ok is False:
            ev._defused = True
            raise ev._value  # type: ignore[misc]
        eng = self.engine
        prev, eng.current_context = eng.current_context, self.sink
        try:
            task = self.task
            held = eng.now - self._held_at
            self.busy_time += held
            task.cpu_time += held
            self._step(task, ev._value)
        finally:
            eng.current_context = prev

    # ------------------------------------------------------------------
    # _take and _realize, the two hottest sites, re-arm the wake in place:
    # clear the fired flag, restore the one callback, schedule.
    # ------------------------------------------------------------------
    def _take(self, task: Task) -> None:
        """Put ``task`` on this core; it runs after the dispatch cost."""
        self.task = task
        cost = self._dispatch
        if cost > 0.0:
            self.busy_time += cost
        self._item = _DISPATCH
        wake = self._wake
        wake._triggered = False
        wake.callbacks = self._wake_cbs
        wake.delay = cost
        self.engine.schedule(wake, cost)

    def _next(self) -> None:
        """Take the next ready task, or wait idle for a push."""
        rt = self.runtime
        ready = rt._ready
        if ready._high:
            self._take(ready._high.popleft())
        elif ready._normal:
            self._take(ready._normal.popleft())
        else:
            self.task = None
            if not rt._shut_down:
                ready._idle.append(self)

    def _run(self, task: Task) -> None:
        """``task`` starts, or resumes, on this core now."""
        eng = self.engine
        now = eng.now
        self.tasks_run += 1
        self._since = now
        task.state = TaskState.RUNNING
        if task.generator is not None:
            # resumed from Sleep or BlockOn: report the actual off-core
            # time (wait_for_us returns the time slept, paper §V-B)
            off = now - task._suspend_started
            task.suspended_time += off
            self._step(task, off)
            return
        task.started_at = now
        tr = eng.tracer
        if tr.enabled and now > task.ready_at:
            tr.ready_wait(self, task)
        if task.body is None:
            self._settle(_DONE)
            return
        rt = self.runtime
        rt.current_task = task
        try:
            result = task.body(task)
        finally:
            rt.current_task = None
        if isinstance(result, GeneratorType):
            task.generator = result
            self._step(task, None)
        else:
            self._realize(_DONE)

    def _step(self, task: Task, value: object) -> None:
        """Run the body's generator up to its next yield."""
        rt = self.runtime
        rt.current_task = task
        try:
            item = task.generator.send(value)
        except StopIteration:
            item = _DONE
        finally:
            rt.current_task = None
        self._realize(item)

    def _realize(self, item: object) -> None:
        """Turn lazily-charged CPU into core-busy simulated time, then
        settle the step's outcome ``item``."""
        sink = self.sink
        dt = sink.pending
        if dt > 0.0:
            sink.pending = 0.0
            self.busy_time += dt
            self.task.cpu_time += dt
            self._item = item
            wake = self._wake
            wake._triggered = False
            wake.callbacks = self._wake_cbs
            wake.delay = dt
            self.engine.schedule(wake, dt)
        else:
            self._settle(item)

    def _settle(self, item: object) -> None:
        """Act on a step's outcome once its charges are realized: one
        on-core interval of the task ends unless the core is busy-held
        (a task-state timeline lane per core, like the paper's Paraver
        views)."""
        task = self.task
        eng = self.engine
        tr = eng.tracer
        if item is _DONE:
            if tr.enabled:
                tr.task_on_core(self, task, self._since, "finished")
            task.state = TaskState.FINISHED
            task.finished_at = eng.now
            if task.events == 0:
                self.runtime._complete(task)
            # else: stays FINISHED (grey in Fig. 1) until pollers fulfill events
        elif isinstance(item, Event):
            # blocking call: the core is busy-held until the event fires
            self._held_at = eng.now
            if item._triggered:
                self._on_held(item)
            else:
                item.callbacks.append(self._held_cb)
            return
        elif isinstance(item, (Sleep, BlockOn)):
            # the core is freed; another worker resumes the task
            rt = self.runtime
            task.state = TaskState.SUSPENDED
            task._suspend_started = eng.now
            sleep = isinstance(item, Sleep)
            if tr.enabled:
                tr.task_on_core(self, task, self._since,
                                "sleep" if sleep else "park")
            wake = eng.timeout(item.seconds) if sleep else item.event
            wake.add_callback(lambda _ev, t=task: rt._ready.push(t, high=True))
        else:
            raise self.runtime._error(
                f"task {task.label}#{task.uid} yielded {item!r}; expected "
                "Event, Sleep, or BlockOn"
            )
        self._next()
