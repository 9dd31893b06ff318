"""MPI request objects.

A :class:`Request` tracks one non-blocking operation. Completion is a
*timestamp*: :meth:`Request.complete_at` records ``completed_at`` and
reserves the completion's ``(time, priority, seq)`` queue position, and
:attr:`Request.done` — what pollers (TAMPI's ``MPI_Test*``) read — answers
"would that event have fired by now". Only a waiter that suspends
(``MPI_Wait``) asks for :meth:`Request.wait_event`, which builds the
:class:`~repro.sim.events.Event` and queues it at exactly the reserved
position, so a completion nobody awaits allocates and fires nothing
(docs/performance.md).
"""

from __future__ import annotations

import enum
import itertools
from heapq import heappush
from typing import Optional

import numpy as np

from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.mpi.errors import MPIError

_req_ids = itertools.count()


class RequestState(enum.Enum):
    PENDING = "pending"
    #: rendezvous send waiting for the receiver's CTS
    HANDSHAKE = "handshake"
    #: data in flight / local completion pending
    IN_FLIGHT = "in_flight"
    DONE = "done"


class Request:
    """Handle for a non-blocking point-to-point operation."""

    __slots__ = (
        "uid",
        "engine",
        "kind",
        "owner",
        "peer",
        "tag",
        "buf",
        "nbytes",
        "state",
        "event",
        "completed_at",
        "sent_at",
        "_seq",
    )

    def __init__(
        self,
        engine: Engine,
        kind: str,
        owner: int,
        peer: int,
        tag: int,
        buf: Optional[np.ndarray],
        nbytes: int,
    ):
        if kind not in ("send", "recv"):
            raise MPIError(f"bad request kind {kind!r}")
        self.uid = next(_req_ids)
        self.engine = engine
        self.kind = kind
        self.owner = owner
        self.peer = peer
        self.tag = tag
        self.buf = buf
        self.nbytes = nbytes
        self.state = RequestState.PENDING
        #: built by :meth:`wait_event` when a waiter first suspends
        self.event: Optional[Event] = None
        self.completed_at: Optional[float] = None
        #: recv requests: sim time the matching message was injected at the
        #: sender (wire-visible causality for late-sender analysis)
        self.sent_at: Optional[float] = None

    @property
    def done(self) -> bool:
        """True once the completion's reserved ``(completed_at, 0, seq)``
        slot is at or before the event the engine is firing."""
        if self.state is RequestState.DONE:
            return True
        when = self.completed_at
        eng = self.engine
        if when is None or when > eng._now or (
                when == eng._now and self._seq > eng._fired_seq):
            return False
        self.state = RequestState.DONE
        return True

    def complete_at(self, when: float) -> None:
        """Mark the request complete at absolute sim time ``when`` (>= now)."""
        if self.completed_at is not None:
            raise MPIError(f"request {self} completed twice")
        eng = self.engine
        delay = when - eng._now
        self.state = RequestState.IN_FLIGHT
        self.completed_at = eng._now + delay if delay > 0.0 else eng._now
        eng._seq += 1
        self._seq = eng._seq
        ev = self.event
        if ev is not None and ev.callbacks:  # somebody already suspended on it
            self.wait_event()

    def wait_event(self) -> Event:
        """The event a suspending waiter yields on; a known completion is
        queued (once) at the position :meth:`complete_at` reserved."""
        ev = self.event
        if ev is None:
            ev = self.event = Event(self.engine)
        if self.completed_at is not None and not ev._scheduled:
            ev._ok = ev._scheduled = True
            ev._value = self
            heappush(self.engine._heap, (self.completed_at, 0, self._seq, ev))
        return ev

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Request #{self.uid} {self.kind} r{self.owner}<->r{self.peer} "
            f"tag={self.tag} {self.nbytes}B {self.state.value}>"
        )
