"""Instrumented shared resources for simulated contention.

:class:`LockStats` holds the aggregate contention statistics (total wait
time, total hold time, acquisition count, maximum queue depth) that the
harness reads back to reproduce the paper's §VI-C claim: TAMPI's
fine-grained performance collapses because of lock wait inside
``MPI_THREAD_MULTIPLE`` implementations. The library's locks are
analytical :class:`repro.sim.serial.SerialDevice` instances;
:class:`Mutex` is the event-driven FIFO lock they are equivalent to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event


@dataclass
class LockStats:
    """Aggregate contention statistics of a lock."""

    acquisitions: int = 0
    contended_acquisitions: int = 0
    total_wait_time: float = 0.0
    total_hold_time: float = 0.0
    max_queue_depth: int = 0


class Mutex:
    """A FIFO mutual-exclusion lock with wait/hold accounting.

    Usage from a process::

        yield mutex.acquire()
        try:
            yield engine.timeout(work)
        finally:
            mutex.release()
    """

    def __init__(self, engine: Engine, name: str = "mutex"):
        self.engine = engine
        self.name = name
        self.stats = LockStats()
        self._locked = False
        self._waiters: Deque[tuple[Event, float]] = deque()
        self._acquired_at: float = 0.0

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires when the caller holds the lock."""
        ev = Event(self.engine)
        if not self._locked:
            self._locked = True
            self._acquired_at = self.engine.now
            self.stats.acquisitions += 1
            ev.succeed()
        else:
            self._waiters.append((ev, self.engine.now))
            self.stats.contended_acquisitions += 1
            self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self._waiters))
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._locked:
            return False
        self._locked = True
        self._acquired_at = self.engine.now
        self.stats.acquisitions += 1
        return True

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release of unheld mutex {self.name!r}")
        now = self.engine.now
        self.stats.total_hold_time += now - self._acquired_at
        tr = self.engine.tracer
        if tr.enabled and now > self._acquired_at:
            tr.span("sim", f"lock_hold:{self.name}", self._acquired_at, now)
        if self._waiters:
            ev, enqueued_at = self._waiters.popleft()
            self.stats.acquisitions += 1
            self.stats.total_wait_time += now - enqueued_at
            if tr.enabled and now > enqueued_at:
                tr.span("sim", f"lock_wait:{self.name}", enqueued_at, now,
                        queue_depth=len(self._waiters))
            self._acquired_at = now
            ev.succeed()
        else:
            self._locked = False
