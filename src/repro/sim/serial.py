"""FIFO serial devices — cheap analytical contention modelling.

A :class:`SerialDevice` models a resource that serves requests one at a time
in arrival order (a lock protecting a short critical section, a NIC DMA
engine, a link). Instead of simulating queueing with events, it keeps a
single ``busy_until`` timestamp: a request arriving at ``now`` is served at
``start = max(now, busy_until)`` and occupies the device until
``start + hold``.

This is *exact* for FIFO service when every requester is charged its wait
synchronously — which is how the MPI global lock
(:mod:`repro.mpi.threading`) and GASPI queue locks use it: the caller's task
is charged ``(start - now) + hold`` seconds of CPU, and any side effects
(message injection) are timestamped at ``start``/``end``, so both the
caller's timeline and the observable network timeline match a fully
event-driven FIFO lock.

Each device keeps :class:`LockStats` so the harness can report "time spent
waiting inside the MPI locking system" (paper §VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Engine


@dataclass
class LockStats:
    """Aggregate contention statistics of a :class:`SerialDevice`."""

    acquisitions: int = 0
    contended_acquisitions: int = 0
    total_wait_time: float = 0.0
    total_hold_time: float = 0.0


@dataclass(slots=True)
class ServiceGrant:
    """Outcome of :meth:`SerialDevice.use`."""

    start: float  #: when service began (lock acquired / transfer started)
    end: float  #: when service finished (lock released / transfer done)
    wait: float  #: time spent queued before service


class SerialDevice:
    """A FIFO-serialized device with analytical queueing.

    Parameters
    ----------
    engine:
        Owning engine (used only to validate time monotonicity).
    name:
        Label for diagnostics.
    """

    __slots__ = ("engine", "name", "busy_until", "stats")

    def __init__(self, engine: Engine, name: str = "serial"):
        self.engine = engine
        self.name = name
        self.busy_until = 0.0
        self.stats = LockStats()

    def use(self, hold: float, at: float | None = None) -> ServiceGrant:
        """Request service for ``hold`` seconds starting no earlier than
        ``at`` (default: the engine's current time). Returns the grant."""
        now = self.engine.now if at is None else at
        start = now if now >= self.busy_until else self.busy_until
        wait = start - now
        end = start + hold
        self.busy_until = end
        st = self.stats
        st.acquisitions += 1
        if wait > 0.0:
            st.contended_acquisitions += 1
            st.total_wait_time += wait
        st.total_hold_time += hold
        return ServiceGrant(start=start, end=end, wait=wait)
