"""The generator worker: the oracle for callback worker cores.

Today's :class:`repro.tasking.scheduler.Worker` is a state machine driven
by engine callbacks. This module keeps the worker it replaced verbatim,
the way ``eager_mpi.py`` keeps the eager MPI driver: each core is a
:class:`~repro.sim.process.Process` whose generator yields three events
per task, a :meth:`ReadyQueue.pop_event` ``Event`` (fired even when a
task is already queued), the ``dispatch_overhead`` timeout and the
timeout that realizes the body's charges. The only addition is the shim
at the bottom: the old ``Runtime.shutdown``, which pushed one sentinel
per worker.

:func:`generator_workers` swaps both classes in for runtimes built inside
a ``with`` block and counts the pop events fired, so a differential test
can require identical results and exactly that many fewer events
(tests/test_worker_oracle.py). Test-only; there is no product switch.
"""

from __future__ import annotations

import contextlib
from collections import deque
from types import GeneratorType
from typing import Deque, TYPE_CHECKING

import repro.tasking.runtime as _runtime
from repro.sim.context import AccumulatingSink
from repro.sim.events import Event
from repro.tasking.task import BlockOn, Sleep, Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.tasking.runtime import Runtime


class ReadyQueue:
    """Two-level FIFO: resumed/priority tasks before ordinary ready tasks."""

    def __init__(self) -> None:
        self._high: Deque[Task] = deque()
        self._normal: Deque[Task] = deque()
        self._waiters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._high) + len(self._normal)

    def push(self, task: Task, high: bool = False) -> None:
        if self._waiters:
            self._waiters.popleft().succeed(task)
            return
        (self._high if high else self._normal).append(task)

    def pop_event(self, engine) -> Event:
        """Event that fires with the next available task."""
        ev = Event(engine)
        if self._high:
            ev.succeed(self._high.popleft())
        elif self._normal:
            ev.succeed(self._normal.popleft())
        else:
            self._waiters.append(ev)
        return ev


class Worker:
    """One simulated core executing tasks."""

    def __init__(self, runtime: "Runtime", index: int):
        self.runtime = runtime
        self.index = index
        self.lane = f"w{index}"
        self.engine = runtime.engine
        self.sink = AccumulatingSink()
        self.busy_time = 0.0
        self.tasks_run = 0
        self.proc = self.engine.process(self._loop())
        self.proc.context = self.sink
        self.proc.name = f"{runtime.name}.worker{index}"

    # ------------------------------------------------------------------
    def _loop(self):
        rt = self.runtime
        eng = self.engine
        dispatch_cost = rt.config.dispatch_overhead
        while True:
            task = yield rt._ready.pop_event(eng)
            if task is rt._shutdown_sentinel:
                return
            if dispatch_cost > 0.0:
                self.busy_time += dispatch_cost
                yield eng.timeout(dispatch_cost)
            yield from self._drive(task)

    def _drive(self, task: Task):
        rt = self.runtime
        eng = self.engine
        self.tasks_run += 1
        on_core_since = eng.now

        resumed = task.generator is not None
        if not resumed:
            task.state = TaskState.RUNNING
            task.started_at = eng.now
            tr = eng.tracer
            if tr.enabled and eng.now > task.ready_at:
                tr.ready_wait(self, task)
        else:
            task.state = TaskState.RUNNING
            task.suspended_time += eng.now - task._suspend_started

        send_value = None
        if not resumed and task.body is not None:
            rt.current_task = task
            try:
                result = task.body(task)
            finally:
                rt.current_task = None
            if isinstance(result, GeneratorType):
                task.generator = result
            else:
                yield from self._realize(task)
                self._emit_on_core(task, on_core_since, "finished")
                self._on_body_done(task)
                return
        elif task.body is None:
            self._emit_on_core(task, on_core_since, "finished")
            self._on_body_done(task)
            return
        else:
            # resumed from Sleep: report actual off-core time (wait_for_us
            # returns the time slept, paper §V-B)
            send_value = eng.now - task._suspend_started

        while True:
            rt.current_task = task
            try:
                item = task.generator.send(send_value)
            except StopIteration:
                rt.current_task = None
                yield from self._realize(task)
                self._emit_on_core(task, on_core_since, "finished")
                self._on_body_done(task)
                return
            except BaseException:
                rt.current_task = None
                raise
            rt.current_task = None
            yield from self._realize(task)

            if isinstance(item, Sleep):
                task.state = TaskState.SUSPENDED
                task._suspend_started = eng.now
                self._emit_on_core(task, on_core_since, "sleep")
                wake = eng.timeout(item.seconds)
                wake.add_callback(lambda _ev, t=task: rt._ready.push(t, high=True))
                return  # core freed; another worker resumes the task
            if isinstance(item, BlockOn):
                task.state = TaskState.SUSPENDED
                task._suspend_started = eng.now
                self._emit_on_core(task, on_core_since, "park")
                item.event.add_callback(lambda _ev, t=task: rt._ready.push(t, high=True))
                return
            if isinstance(item, Event):
                before = eng.now
                send_value = yield item  # core busy-held (blocking call)
                self.busy_time += eng.now - before
                task.cpu_time += eng.now - before
                continue
            raise rt._error(
                f"task {task.label}#{task.uid} yielded {item!r}; expected "
                "Event, Sleep, or BlockOn"
            )

    def _emit_on_core(self, task: Task, t0: float, outcome: str) -> None:
        """One on-core interval of ``task`` on this worker (a task-state
        timeline lane per core, like the paper's Paraver views)."""
        tr = self.engine.tracer
        if tr.enabled:
            tr.task_on_core(self, task, t0, outcome)

    def _realize(self, task: Task):
        """Turn lazily-charged CPU into core-busy simulated time."""
        dt = self.sink.take()
        if dt > 0.0:
            self.busy_time += dt
            task.cpu_time += dt
            yield self.engine.timeout(dt)

    def _on_body_done(self, task: Task) -> None:
        task.state = TaskState.FINISHED
        task.finished_at = self.engine.now
        if task.events == 0:
            self.runtime._complete(task)
        # else: stays FINISHED (grey in Fig. 1) until pollers fulfill events

# ----------------------------------------------------------------------
# shim: the old Runtime.shutdown, and the swap
# ----------------------------------------------------------------------
_SHUTDOWN = object()


def _shutdown(self) -> None:
    """Stop the worker processes (end of simulation)."""
    self._shut_down = True
    for _ in self.workers:
        self._ready.push(self._shutdown_sentinel)  # type: ignore[arg-type]


@contextlib.contextmanager
def generator_workers():
    """Build runtimes inside the block on the generator worker. Yields a
    one-item list that counts the pop events those runtimes fire."""
    pops = [0]

    def count(_ev):
        pops[0] += 1

    real_pop_event = ReadyQueue.pop_event

    def pop_event(self, engine) -> Event:
        ev = real_pop_event(self, engine)
        ev.callbacks.insert(0, count)
        return ev

    rt_cls = _runtime.Runtime
    saved = (_runtime.ReadyQueue, _runtime.Worker, rt_cls.shutdown)
    ReadyQueue.pop_event = pop_event
    _runtime.ReadyQueue, _runtime.Worker = ReadyQueue, Worker
    rt_cls.shutdown = _shutdown
    rt_cls._shutdown_sentinel = _SHUTDOWN
    try:
        yield pops
    finally:
        ReadyQueue.pop_event = real_pop_event
        _runtime.ReadyQueue, _runtime.Worker, rt_cls.shutdown = saved
        del rt_cls._shutdown_sentinel
