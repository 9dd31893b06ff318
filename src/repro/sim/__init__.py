"""Deterministic discrete-event simulation (DES) kernel.

This package is the substrate for the whole reproduction: simulated MPI
ranks, network links, tasking-runtime worker cores, and polling services are
all :class:`~repro.sim.process.Process` instances driven by a single
:class:`~repro.sim.engine.Engine`.

Design goals (see DESIGN.md §1):

* **Determinism** — events are ordered by ``(time, priority, sequence)``;
  two runs with the same seed produce identical traces.
* **Coroutine processes** — simulated activities are plain Python
  generators that ``yield`` awaitable events (timeouts, events, lock
  acquisitions), in the style of SimPy but with a much smaller, auditable
  core.
* **Instrumentable resources** — :class:`~repro.sim.resources.Mutex`
  records aggregate wait/hold time, which the evaluation harness uses to
  reproduce the paper's "time spent inside the MPI locking system"
  analysis (§VI-C).
"""

from repro.sim.engine import Engine, Interrupt, SimulationError
from repro.sim.events import Event, Timeout, AllOf, AnyOf
from repro.sim.process import Process
from repro.sim.resources import Mutex, Resource, Store
from repro.sim.rng import SeedSequence, derive_rng

__all__ = [
    "Engine",
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Mutex",
    "Resource",
    "Store",
    "SeedSequence",
    "derive_rng",
]
