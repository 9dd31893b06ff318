"""Generator-based simulated processes.

A :class:`Process` drives a Python generator: each value the generator
``yield``s must be an :class:`~repro.sim.events.Event`; the process suspends
until that event fires and then resumes with the event's value (or with the
event's exception thrown into it, so model code can ``try/except`` failures
like communication errors).

A process is itself an event: it triggers when the generator returns (value =
the generator's return value) or raises (failure). Other processes can
therefore ``yield`` a process to join it.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.engine import Engine, Interrupt, SimulationError, PRIORITY_URGENT
from repro.sim.events import Event


class Process(Event):
    """A running simulated activity.

    Parameters
    ----------
    engine:
        The owning engine.
    generator:
        A generator yielding :class:`Event` instances.
    name:
        Optional label for traces and error messages.
    """

    __slots__ = ("generator", "name", "_target", "_resume_cb", "context")

    def __init__(self, engine: Engine, generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        self._resume_cb = self._resume
        #: CPU-charge sink installed as ``engine.current_context`` while this
        #: process executes a synchronous step (see :mod:`repro.sim.context`).
        self.context = None
        # Kick off on the next engine step at the current instant.
        start = Event(engine)
        start.add_callback(self._resume_cb)
        start.succeed(priority=PRIORITY_URGENT)

    @property
    def is_alive(self) -> bool:
        return not self.triggered and self.ok is None

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a process that already terminated is an error;
        interrupting one that is waiting detaches it from its current target
        event (the target may still fire for other waiters).
        """
        if self.triggered or self._scheduled:
            raise SimulationError(f"cannot interrupt terminated process {self.name!r}")
        interrupt_ev = Event(self.engine)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev._scheduled = True
        # Detach from whatever we were waiting on.
        target, self._target = self._target, None
        if target is not None and self._resume_cb in target.callbacks:
            target.callbacks.remove(self._resume_cb)
        self.engine.schedule(interrupt_ev, 0.0, PRIORITY_URGENT)
        interrupt_ev.add_callback(self._resume_cb)

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._target = None
        engine = self.engine
        prev_ctx = engine.current_context
        engine.current_context = self.context
        try:
            # `event` has fired, so its slots are read directly (the `ok` /
            # `value` properties only add a frame and a pending-guard here)
            if event._ok is False:
                event._defused = True
                target = self.generator.throw(event._value)  # type: ignore[arg-type]
            else:
                target = self.generator.send(event._value if event is not self else None)
        except StopIteration as stop:
            self.succeed(stop.value, priority=PRIORITY_URGENT)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        finally:
            engine.current_context = prev_ctx
        if not isinstance(target, Event):
            self.generator.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Events"
                )
            )
            return
        if target is self:
            self.generator.close()
            self.fail(SimulationError(f"process {self.name!r} waited on itself"))
            return
        self._target = target
        if target._triggered:  # inlined Event.add_callback
            self._resume(target)
        else:
            target.callbacks.append(self._resume_cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else ("finishing" if self._scheduled else "alive")
        return f"<Process {self.name} {state}>"
