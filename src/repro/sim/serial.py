"""FIFO serial devices — cheap analytical contention modelling.

A :class:`SerialDevice` models a resource that serves requests one at a time
in arrival order (a lock protecting a short critical section, a NIC DMA
engine, a link). Instead of simulating queueing with events, it keeps a
single ``busy_until`` timestamp: a request arriving at ``at`` is served at
``start = max(at, busy_until)`` and occupies the device until
``start + hold``.

This is *exact* for FIFO service when every requester is charged its wait
synchronously — which is how the MPI global lock
(:mod:`repro.mpi.threading`) and GASPI queue locks use it: the caller's task
is charged ``(start - at) + hold`` seconds of CPU, and any side effects
(message injection) are timestamped at ``start``/``start + hold``, so both
the caller's timeline and the observable network timeline match a fully
event-driven FIFO lock.

The device keeps no statistics: each owner counts what it reports (the MPI
lock its time inside MPI, a GASPI queue its wait and hold time; the NIC
channels count nothing).
"""

from __future__ import annotations


class SerialDevice:
    """A FIFO-serialized device with analytical queueing."""

    __slots__ = ("busy_until",)

    def __init__(self):
        self.busy_until = 0.0

    def use(self, hold: float, at: float) -> float:
        """Request service for ``hold`` seconds arriving at ``at``; returns
        when service starts. The wait is ``start - at``, the end
        ``start + hold``."""
        start = at if at >= self.busy_until else self.busy_until
        self.busy_until = start + hold
        return start
