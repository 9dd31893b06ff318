"""Execution-context plumbing: who pays for CPU time?

Model code (substrate calls like ``isend`` or ``tagaspi_write_notify``) is
written as plain synchronous functions so that application task bodies read
like the paper's listings. The CPU time those calls consume is *charged*
to whoever is currently executing: the engine holds a ``current_context``
(set by the tasking runtime's workers around each task step, or by
stand-alone rank driver processes) and substrates call
:func:`charge_current`.

Charges are *lazy*: they accumulate in the sink until the executor takes
them — a :class:`repro.tasking.scheduler.Worker` as a simulated delay after
the current synchronous step, a :class:`repro.mpi.comm.MPIProcDriver` into
its local clock, which becomes an event only at its next ``sync()``.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.sim.engine import Engine


class CpuSink(Protocol):
    """Anything that can absorb charged CPU seconds."""

    def charge(self, seconds: float) -> None:  # pragma: no cover - protocol
        ...


class AccumulatingSink:
    """Simple sink used by stand-alone rank drivers and tests."""

    __slots__ = ("pending",)

    def __init__(self) -> None:
        self.pending = 0.0

    def charge(self, seconds: float) -> None:
        self.pending += seconds

    def take(self) -> float:
        """Return and reset the accumulated charge."""
        p, self.pending = self.pending, 0.0
        return p


def current_sink(engine: Engine) -> Optional[CpuSink]:
    return getattr(engine, "current_context", None)


def charge_current(engine: Engine, seconds: float) -> None:
    """Charge ``seconds`` of CPU to the currently executing context.

    Charging with no context installed is allowed (and dropped): setup code
    that runs before the simulation starts uses the same substrate calls.
    """
    if seconds <= 0.0:
        return
    sink = getattr(engine, "current_context", None)
    if sink is not None:
        sink.charge(seconds)
