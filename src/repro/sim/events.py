"""Awaitable events for the DES kernel.

An :class:`Event` is a one-shot occurrence: it is *triggered* at most once,
either successfully (carrying a value) or as a failure (carrying an
exception). Processes wait on events by ``yield``-ing them; arbitrary code
can also attach callbacks.

The composite event :class:`AllOf` mirrors SimPy's condition event in the
small form the reproduction needs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.engine import Engine, SimulationError, PRIORITY_NORMAL


class Event:
    """A one-shot awaitable occurrence on an :class:`Engine`."""

    #: ``_lseq`` is the queue sequence number, assigned when the event
    #: enters the engine's immediate lane (lane entries are bare events;
    #: see engine.py). Only meaningful while the event sits in the lane.
    __slots__ = ("engine", "callbacks", "_triggered", "_ok", "_value",
                 "_scheduled", "_defused", "_cancelled", "_lseq")

    def __init__(self, engine: Engine):
        self.engine = engine
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._ok: Optional[bool] = None
        self._value: object = None
        self._scheduled = False
        self._defused = False
        self._cancelled = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has fired (callbacks have run)."""
        return self._triggered

    @property
    def pending(self) -> bool:
        return not self._triggered and not self._scheduled

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self) -> object:
        if self._ok is None:
            raise SimulationError("value read before the event triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: object = None, delay: float = 0.0, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire successfully ``delay`` seconds from now."""
        # _triggered implies _scheduled (events only fire after scheduling),
        # so one flag read covers the full already-triggered guard.
        if self._scheduled:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        if value is not None:
            self._value = value
        self._scheduled = True
        self.engine.schedule(self, delay, priority)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure."""
        if self._scheduled or self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._scheduled = True
        self.engine.schedule(self, delay)
        return self

    def cancel(self) -> bool:
        """Lazily cancel this scheduled-but-unfired event.

        The heap entry is only *flagged*; the engine discards it when it
        reaches the top of the queue (O(1) amortized, no heap rebuild).
        A cancelled event never fires: its callbacks never run and it does
        not count toward ``event_count`` or live queue depth.

        Returns ``True`` if the event was cancelled by this call, ``False``
        if it had already fired or was already cancelled (both benign — the
        main use is defusing timeouts that may race their own deadline).
        Cancelling an event that was never scheduled is an error.
        """
        if self._triggered or self._cancelled:
            return False
        if not self._scheduled:
            raise SimulationError(f"cannot cancel unscheduled {self!r}")
        self._cancelled = True
        self.engine._cancelled += 1
        return True

    def _fire(self) -> None:
        # NOTE: Engine.run inlines this body — keep the two in sync, and
        # do not override _fire in subclasses (docs/performance.md).
        self._triggered = True
        # The shared empty *tuple* costs no allocation per fire; nothing
        # appends to a fired event's callbacks (add_callback calls through).
        callbacks, self.callbacks = self.callbacks, ()
        if len(callbacks) == 1:
            callbacks[0](self)
        else:
            for cb in callbacks:
                cb(self)
        # A failed event nobody waited on is a silent lost error; surface it.
        if self._ok is False and not self._defused:
            raise self._value  # type: ignore[misc]

    # -- waiting ----------------------------------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when this event fires (immediately if it already
        has)."""
        if self._triggered:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else ("scheduled" if self._scheduled else "pending")
        return f"<{type(self).__name__} {state} at t={self.engine.now:.6g}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after construction."""

    __slots__ = ("delay",)

    def __init__(self, engine: Engine, delay: float, value: object = None):
        super().__init__(engine)
        self.delay = delay
        self.succeed(value, delay)


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values.
    A child that fails fails it (and is defused)."""

    __slots__ = ("_events", "_pending_count")

    def __init__(self, engine: Engine, events: List[Event]):
        super().__init__(engine)
        self._events = events
        self._pending_count = 0
        for ev in events:
            if not ev.triggered:
                self._pending_count += 1
                ev.add_callback(self._on_child)
        if not self._pending_count:
            self.succeed([ev.value for ev in events])

    def _on_child(self, ev: Event) -> None:
        self._pending_count -= 1
        if self._scheduled or self._triggered:
            return
        if ev.ok is False:
            ev._defused = True
            self.fail(ev.value)  # type: ignore[arg-type]
        elif not self._pending_count:
            self.succeed([e.value for e in self._events])
