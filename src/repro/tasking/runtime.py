"""The per-rank tasking runtime facade.

One :class:`Runtime` corresponds to one OmpSs-2 process: a dependency
domain, a ready queue, and ``n_cores`` worker cores. The public surface
used by applications and the task-aware libraries:

* :meth:`submit` — create a task with dependencies / onready / label.
* :meth:`spawn_main` — start the rank's main function as a plain process
  that creates tasks (charging creation overhead) and can ``yield from``
  blocking helpers like :meth:`taskwait`.
* :meth:`taskwait` — event that fires when all submitted tasks completed.
* External events API (paper §II-C): :attr:`current_task`,
  :meth:`Task.add_event`, :meth:`Task.fulfill_event` — used by TAMPI and
  TAGASPI.
* ``nanos6_spawn_function`` equivalent: :meth:`spawn_independent` — a task
  outside the dependency namespace (the libraries' polling tasks).
* ``wait_for_us`` (paper §V-B): task bodies ``yield rt.wait_for_us(us)``.
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, List, Optional

from repro.sim.context import AccumulatingSink, charge_current
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.tasking.dependencies import Dep, DependencyTracker
from repro.tasking.scheduler import ReadyQueue, Worker
from repro.tasking.task import Sleep, Task, TaskState


class TaskingError(RuntimeError):
    """Misuse of the tasking runtime."""


@dataclass
class RuntimeConfig:
    """Tunable overheads of the tasking runtime (Nanos6-flavoured).

    The creation/dispatch costs are what make very fine-grained tasks
    unprofitable — the effect visible at the small-block end of the
    paper's Figs. 10 and 12 for the hybrid variants.
    """

    n_cores: int = 4
    #: charged to the creator per task submitted (allocation + dependency
    #: registration)
    create_overhead: float = 1.0e-6
    #: charged on a core per task dispatched from the ready queue
    dispatch_overhead: float = 0.4e-6
    #: extra creator cost per dependency beyond the first two
    per_dep_overhead: float = 0.05e-6

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise TaskingError("n_cores must be >= 1")


@dataclass
class RuntimeStats:
    tasks_created: int = 0
    tasks_completed: int = 0
    onready_calls: int = 0
    total_task_cpu_time: float = 0.0
    #: per-label (count, total core occupancy) aggregates
    by_label: dict = field(default_factory=dict)


class Runtime:
    """One simulated OmpSs-2 process."""

    def __init__(self, engine: Engine, config: Optional[RuntimeConfig] = None,
                 name: str = "rt"):
        self.engine = engine
        self.config = config or RuntimeConfig()
        self.name = name
        self.deps = DependencyTracker()
        self._task_uids = itertools.count()
        self._ready = ReadyQueue()
        self.current_task: Optional[Task] = None
        self.stats = RuntimeStats()
        self._outstanding = 0
        self._taskwait_waiters: List[Event] = []
        #: onready-blocked timestamps, kept only while a tracer is enabled
        self._blocked_at: dict = {}
        self._shutdown_sentinel = object()
        self._shut_down = False
        self.workers = [Worker(self, i) for i in range(self.config.n_cores)]

    # ------------------------------------------------------------------
    # task creation
    # ------------------------------------------------------------------
    def submit(
        self,
        body: Optional[Callable],
        deps: Iterable[Dep] = (),
        label: str = "task",
        onready: Optional[Callable[[Task], None]] = None,
        priority: bool = False,
    ) -> Task:
        """Create and submit a task.

        ``body`` is called as ``body(task)`` when the task runs; it may
        return a generator to interleave compute (``yield
        task.runtime.compute(dt)``) with communication calls. Bind
        per-task arguments with :func:`functools.partial` (``task`` last)
        so tasks of one kind share one function. ``deps`` are
        :func:`~repro.tasking.dependencies.In`/``Out``/``InOut`` items;
        they are consumed here and not kept, so a list or tuple is read
        as is and may be shared by every task making the same accesses.
        ``onready`` is the paper's §V-A clause.
        """
        if self._shut_down:
            raise TaskingError("runtime has been shut down")
        if not isinstance(deps, (tuple, list)):
            deps = list(deps)
        task = Task(self, body, label=label, onready=onready, priority=priority)
        cfg = self.config
        cost = cfg.create_overhead + cfg.per_dep_overhead * max(0, len(deps) - 2)
        charge_current(self.engine, cost)
        self.stats.tasks_created += 1
        self._outstanding += 1
        an = self.engine.analysis
        if an.enabled:
            an.on_task_submit(task, self)
        tr = self.engine.tracer
        if tr.enabled:
            preds: List[Task] = []
            added = self.deps.register(task, deps, preds)
            tr.task_submit(self, task, preds)
        else:
            added = self.deps.register(task, deps)
        task.remaining_deps = added
        if added == 0:
            self._make_ready(task)
        return task

    def spawn_independent(
        self, body: Callable, label: str = "spawned", priority: bool = True
    ) -> Task:
        """``nanos6_spawn_function``: a task with an independent dependency
        namespace (no deps), used for library polling services."""
        task = Task(self, body, label=label, priority=priority)
        task.independent = True
        self.stats.tasks_created += 1
        self._make_ready(task)
        return task

    # ------------------------------------------------------------------
    # main-process support
    # ------------------------------------------------------------------
    def spawn_main(self, body_factory: Callable[["Runtime"], Generator], name=None):
        """Start ``body_factory(self)`` as this rank's main process (task
        creator). Its substrate/creation charges are realized whenever it
        yields :meth:`flush` or any blocking helper."""
        proc = self.engine.process(body_factory(self))
        proc.context = self._main_sink = AccumulatingSink()
        proc.name = name or f"{self.name}.main"
        return proc

    def flush(self) -> Generator:
        """Realize the main process's accumulated CPU charges as time."""
        dt = self._main_sink.take()
        if dt > 0.0:
            yield self.engine.timeout(dt)

    def taskwait(self) -> Generator:
        """Suspend the caller until all submitted tasks completed (the
        final barrier of an OmpSs-2 region)."""
        yield from self.flush()
        if self._outstanding > 0:
            ev = Event(self.engine)
            self._taskwait_waiters.append(ev)
            an = self.engine.analysis
            token = an.wait_enter(
                self.name, "taskwait",
                outstanding=self._outstanding) if an.enabled else None
            try:
                yield ev
            finally:
                if an.enabled:
                    an.wait_exit(token)

    # ------------------------------------------------------------------
    # in-task services
    # ------------------------------------------------------------------
    def wait_for_us(self, microseconds: float) -> Sleep:
        """Paper §V-B: block the calling task for ~``microseconds``,
        yielding its core. The body must ``yield`` the returned object;
        the resumed value is the actual time slept (in seconds)."""
        return Sleep(microseconds * 1e-6)

    def charge_current_task(self, seconds: float) -> None:
        """Charge CPU to whoever is executing (bodies and libraries)."""
        charge_current(self.engine, seconds)

    # ------------------------------------------------------------------
    # lifecycle internals (called by scheduler / dependency system)
    # ------------------------------------------------------------------
    def _make_ready(self, task: Task) -> None:
        if task.onready is not None:
            self.stats.onready_calls += 1
            prev = self.current_task
            self.current_task = task
            task._in_onready = True
            try:
                task.onready(task)
            finally:
                task._in_onready = False
                self.current_task = prev
        if task.pre_events > 0:
            task.state = TaskState.READY_BLOCKED
            tr = self.engine.tracer
            if tr.enabled:
                self._blocked_at[task.uid] = self.engine.now
                tr.instant("tasking", "ready_blocked", self.engine.now,
                           rank=self.name, task=task.label, uid=task.uid,
                           pre_events=task.pre_events)
            return
        self._enqueue_ready(task)

    def _enqueue_ready(self, task: Task) -> None:
        task.state = TaskState.READY
        task.ready_at = self.engine.now
        tr = self.engine.tracer
        if tr.enabled:
            t0 = self._blocked_at.pop(task.uid, None)
            if t0 is not None:
                # execution delayed by onready-registered events (§V-A)
                tr.onready_wait(self, task, t0)
        self._ready.push(task, high=task.priority)

    def _complete(self, task: Task) -> None:
        if task.state is TaskState.COMPLETED:
            raise TaskingError(f"{task!r} completed twice")
        task.state = TaskState.COMPLETED
        task.completed_at = self.engine.now
        an = self.engine.analysis
        if an.enabled:
            an.on_task_complete(task, self)
        tr = self.engine.tracer
        if tr.enabled and task.completed_at > task.finished_at:
            # body returned but external events held completion (grey tasks
            # of the paper's Fig. 1)
            tr.event_wait(self, task)
        if tr.enabled:
            tr.task_done(self, task)
        st = self.stats
        st.tasks_completed += 1
        st.total_task_cpu_time += task.cpu_time
        agg = st.by_label.get(task.label)
        if agg is None:
            st.by_label[task.label] = [1, task.cpu_time]
        else:
            agg[0] += 1
            agg[1] += task.cpu_time
        # release dependencies: decrement each successor edge
        succs = task.successors
        if succs is not None:
            task.successors = None
            for succ in succs:
                succ.remaining_deps -= 1
                if succ.remaining_deps == 0 and succ.state is TaskState.CREATED:
                    self._make_ready(succ)
        if task.independent:
            return
        self._outstanding -= 1
        if self._outstanding == 0 and self._taskwait_waiters:
            waiters, self._taskwait_waiters = self._taskwait_waiters, []
            for ev in waiters:
                ev.succeed()

    def shutdown(self) -> None:
        """Stop the worker processes (end of simulation)."""
        self._shut_down = True
        for _ in self.workers:
            self._ready.push(self._shutdown_sentinel)  # type: ignore[arg-type]

    def _error(self, msg: str) -> TaskingError:
        return TaskingError(f"[{self.name}] {msg}")

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return self._outstanding

    def core_busy_time(self) -> float:
        return sum(w.busy_time for w in self.workers)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Runtime {self.name} cores={self.config.n_cores} outstanding={self._outstanding}>"
