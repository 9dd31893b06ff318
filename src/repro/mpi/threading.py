"""The ``MPI_THREAD_MULTIPLE`` contention model.

The paper's central measurement (§VI-C): when many tasks call
``MPI_Isend``/``MPI_Irecv`` while TAMPI's poller calls
``MPI_Test``/``MPI_Testsome``, all of them serialize on a lock shared by the
library's hot paths; at block size 2048 the Streaming benchmark spends 27×
more total time inside MPI than at 8192, almost all of it lock wait.

We model that lock as one :class:`~repro.sim.serial.SerialDevice` per MPI
process. Every API entry requests the device for a fabric-dependent hold
time; the wait+hold is charged to the calling task's CPU and the
operation's hardware effects are timestamped at the grant, so both the
caller's slowdown and the delayed injection are reproduced.

``GlobalLock.time_in_mpi`` aggregates wait+hold per process — the quantity
the paper reports from VTune — ``wait_in_mpi`` the wait alone, and
``calls`` the number of library entries.
"""

from __future__ import annotations

from repro.sim.engine import Engine
from repro.sim.context import charge_current
from repro.sim.serial import SerialDevice


class GlobalLock:
    """Per-process MPI library lock with time-in-MPI accounting."""

    __slots__ = ("engine", "rank", "device", "time_in_mpi", "wait_in_mpi", "calls")

    def __init__(self, engine: Engine, rank: int):
        self.engine = engine
        self.rank = rank
        self.device = SerialDevice()
        #: total wait+hold seconds across all MPI calls of this process
        self.time_in_mpi = 0.0
        #: the wait component alone (the paper attributes the blowup to it)
        self.wait_in_mpi = 0.0
        self.calls = 0

    def enter(self, hold: float, op: str = "call",
              at: float | None = None) -> float:
        """Serialize one MPI call of duration ``hold``; charge the caller.
        Returns when the lock was acquired; the call ends ``hold`` later.

        ``op`` names the API entry for the trace timeline (isend, testsome,
        …); the span covers wait + hold — per-call time inside MPI. ``at``
        is the caller's clock when it runs ahead of the engine's.
        """
        now = self.engine.now if at is None else at
        start = self.device.use(hold, now)
        wait = start - now
        cost = wait + hold
        self.time_in_mpi += cost
        self.wait_in_mpi += wait
        self.calls += 1
        charge_current(self.engine, cost)
        tr = self.engine.tracer
        if tr.enabled:
            tr.mpi_call(self.rank, op, now, start + hold, wait)
        return start
