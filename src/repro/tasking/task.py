"""Task objects and their lifecycle.

State machine (paper Fig. 1)::

    CREATED ──deps satisfied──► onready ──pre-events?──► READY ──► RUNNING
       ▲                           │READY_BLOCKED──────────┘           │
       │                           ▼ (pre-events fulfilled)            │
    (submit)                                        ┌──── SUSPENDED ◄──┤ (wait_for_us /
                                                    └──────────────────┤  BlockOn)
                                                                       ▼
                                      body returned: FINISHED (grey in Fig. 1)
                                                                       │
                                              events fulfilled──► COMPLETED
                                                                       │
                                                         release dependencies

The two event counters:

* ``pre_events`` — registered from the ``onready`` callback; delay
  *execution* (paper §V-A).
* ``events`` — registered while the body runs (TAMPI_Iwait /
  tagaspi_* calls); delay *completion* and hence dependency release
  (paper §II-C, §IV-A).
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.tasking.runtime import Runtime


class TaskState(enum.Enum):
    CREATED = "created"
    #: dependencies satisfied, onready pre-events pending
    READY_BLOCKED = "ready_blocked"
    READY = "ready"
    RUNNING = "running"
    #: voluntarily off-core (wait_for_us / BlockOn)
    SUSPENDED = "suspended"
    #: body returned; external events pending (grey tasks in Fig. 1)
    FINISHED = "finished"
    COMPLETED = "completed"


class Sleep:
    """Yielded by a task body to block for ``seconds``, releasing the core.

    The value sent back on resume is the *actual* time off-core (sleep plus
    time queued for a core), which is what the paper's ``wait_for_us``
    returns so pollers can adapt.
    """

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError("sleep must be non-negative")
        self.seconds = seconds


class BlockOn:
    """Yielded by a task body to suspend until ``event`` fires, releasing
    the core (unlike yielding the raw event, which busy-holds the core).

    Used by library pollers to park when they have no pending work."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


class Task:
    """A unit of work with dependencies, events, and an optional onready
    callback."""

    __slots__ = (
        "uid",
        "runtime",
        "body",
        "label",
        "onready",
        "priority",
        "state",
        "generator",
        "remaining_deps",
        "successors",
        "events",
        "pre_events",
        "_in_onready",
        "created_at",
        "ready_at",
        "started_at",
        "finished_at",
        "completed_at",
        "suspended_time",
        "_suspend_started",
        "cpu_time",
        "independent",
    )

    def __init__(
        self,
        runtime: "Runtime",
        body: Optional[Callable],
        label: str = "task",
        onready: Optional[Callable[["Task"], None]] = None,
        priority: bool = False,
    ):
        # runtime-local: uids (and thus traces/reprs) are a pure function
        # of the run, never of process history
        self.uid = next(runtime._task_uids)
        self.runtime = runtime
        self.body = body
        self.label = label
        self.onready = onready
        self.priority = priority
        self.state = TaskState.CREATED
        self.generator = None
        self.remaining_deps = 0
        #: tasks waiting on this one; created at the first out-edge
        self.successors: Optional[List[Task]] = None
        self.events = 0
        self.pre_events = 0
        self._in_onready = False
        self.created_at = runtime.engine.now
        self.ready_at = 0.0
        self.started_at = 0.0
        self.finished_at = 0.0
        self.completed_at = 0.0
        self.suspended_time = 0.0
        self._suspend_started = 0.0
        self.cpu_time = 0.0
        #: spawned outside the dependency namespace (polling services);
        #: excluded from taskwait accounting
        self.independent = False

    # ------------------------------------------------------------------
    # external events API (OmpSs-2 task external events, paper §II-C)
    # ------------------------------------------------------------------
    def add_event(self, n: int = 1) -> None:
        """Bind ``n`` more external events to this task.

        Called from the task's own body (via the library wrappers): if the
        task is inside its onready callback, the events delay *execution*;
        otherwise they delay *completion*."""
        if n <= 0:
            raise ValueError("event count must be positive")
        if self._in_onready:
            self.pre_events += n
        else:
            self.events += n

    def fulfill_event(self, n: int = 1) -> None:
        """Fulfill ``n`` completion events (called by library pollers)."""
        if n > self.events:
            raise RuntimeError(
                f"task {self.label}#{self.uid}: fulfilling {n} of {self.events} events"
            )
        self.events -= n
        if self.events == 0 and self.state is TaskState.FINISHED:
            self.runtime._complete(self)

    def fulfill_pre_event(self, n: int = 1) -> None:
        """Fulfill ``n`` execution-delaying (onready) events."""
        if n > self.pre_events:
            raise RuntimeError(
                f"task {self.label}#{self.uid}: fulfilling {n} of {self.pre_events} pre-events"
            )
        self.pre_events -= n
        if self.pre_events == 0 and self.state is TaskState.READY_BLOCKED:
            self.runtime._enqueue_ready(self)

    # ------------------------------------------------------------------
    # in-body helpers
    # ------------------------------------------------------------------
    def charge(self, seconds: float) -> None:
        """Account ``seconds`` of CPU work to this task (realized as
        core-busy time by the worker after the current step). Use from
        plain-callable bodies where ordering vs. communication calls does
        not matter."""
        from repro.sim.context import charge_current

        charge_current(self.runtime.engine, seconds)

    def compute(self, seconds: float):
        """Return a timeout to ``yield`` from a generator body: core-busy
        work that *precedes* whatever the body does next (use when a send
        must happen after the compute, e.g. pack-then-write tasks)."""
        return self.runtime.engine.timeout(seconds)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state is TaskState.COMPLETED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.label}#{self.uid} {self.state.value}>"
