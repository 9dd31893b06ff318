"""Deterministic discrete-event simulation (DES) kernel.

This package is the substrate for the whole reproduction: simulated MPI
ranks and task creators are :class:`~repro.sim.process.Process` instances,
and tasking-runtime worker cores are engine callbacks, all driven by a
single :class:`~repro.sim.engine.Engine`.

Design goals (see DESIGN.md §1):

* **Determinism** — events are ordered by ``(time, priority, sequence)``;
  two runs with the same seed produce identical traces.
* **Coroutine processes** — simulated activities are plain Python
  generators that ``yield`` awaitable events (timeouts, events), in the
  style of SimPy but with a much smaller, auditable core.
* **Analytical contention** — a :class:`~repro.sim.serial.SerialDevice`
  (a lock, a NIC channel) is one ``busy_until`` float: it serves requests
  in FIFO order without events. Its owners count the wait and hold time
  that the evaluation harness uses to reproduce the paper's "time spent
  inside the MPI locking system" analysis (§VI-C).
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event, Timeout, AllOf
from repro.sim.process import Process
from repro.sim.rng import SeedSequence, derive_rng

__all__ = [
    "Engine",
    "SimulationError",
    "Event",
    "Timeout",
    "AllOf",
    "Process",
    "SeedSequence",
    "derive_rng",
]
