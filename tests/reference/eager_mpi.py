"""Eager MPI completion + per-call realisation: the oracle for lazy clocks.

The pre-ISSUE-21 :class:`Request` (every completion is a scheduled event
whose callback flips ``state``) and :class:`MPIProcDriver` (every call
realises its CPU charge as a ``Timeout``), kept verbatim the way
``heap_engine.py`` keeps the one-heap engine. The only additions are the
three one-line shims at the bottom of each class that let today's callers
run on them unchanged: ``Request.wait_event`` (the event is always
scheduled here), ``MPIProcDriver.sync`` (= the old ``_realize``) and
``MPIProcDriver.now`` (= ``engine.now``: nothing is ever pending).

:func:`eager` swaps both in for the duration of a ``with`` block —
test-only, there is no product switch (tests/test_lazy_clock.py).
"""

from __future__ import annotations

import contextlib
from typing import Generator, Optional, Sequence

import numpy as np

import repro.harness.runner as _runner
import repro.mpi.comm as _comm
from repro.mpi.comm import MPIRank
from repro.mpi.errors import MPIError
from repro.mpi.requests import RequestState, _req_ids
from repro.sim.context import AccumulatingSink
from repro.sim.engine import Engine
from repro.sim.events import Event


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
        self.event = Event(engine)
        self.completed_at: Optional[float] = None
        #: recv requests: sim time the matching message was injected at the
        #: sender (wire-visible causality for late-sender analysis)
        self.sent_at: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.state is RequestState.DONE

    def complete_at(self, when: float) -> None:
        """Mark the request complete at absolute sim time ``when`` (>= now)."""
        if self.state is RequestState.DONE:
            raise MPIError(f"request {self} completed twice")
        delay = when - self.engine.now
        if delay < 0:
            delay = 0.0
        self.state = RequestState.IN_FLIGHT
        self.completed_at = self.engine.now + delay

        def _finish(_ev: Event) -> None:
            self.state = RequestState.DONE

        self.event.add_callback(_finish)
        self.event.succeed(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Request #{self.uid} {self.kind} r{self.owner}<->r{self.peer} "
            f"tag={self.tag} {self.nbytes}B {self.state.value}>"
        )

    def wait_event(self) -> Event:
        return self.event


class MPIProcDriver:
    """Convenience wrapper for writing **MPI-only** rank processes.

    Wraps an :class:`MPIRank` so that each call realizes its charged CPU
    time as simulated delay immediately, which is the right model for a
    single-threaded MPI process (the paper's pure-MPI baselines)::

        def main(drv):
            req = yield from drv.isend(buf, dest, tag)
            yield from drv.compute(seconds)
            yield from drv.waitall([req, ...])

    The driver's process must be created with
    ``engine.process(main(drv))`` and assigned ``drv.sink`` as its context —
    :meth:`spawn` does both.
    """

    def __init__(self, mpi_rank: MPIRank):
        self.mpi = mpi_rank
        self.engine = mpi_rank.engine
        self.sink = AccumulatingSink()

    def spawn(self, body_factory) -> "object":
        """Start ``body_factory(self)`` as this rank's main process."""
        proc = self.engine.process(body_factory(self))
        proc.context = self.sink
        proc.name = f"mpi-only.rank{self.mpi.rank}"
        return proc

    def _realize(self) -> Generator:
        dt = self.sink.take()
        if dt > 0.0:
            yield self.engine.timeout(dt)

    def compute(self, seconds: float) -> Generator:
        """Occupy this rank's (single) core for ``seconds``."""
        yield from self._realize()
        if seconds > 0.0:
            t0 = self.engine.now
            yield self.engine.timeout(seconds)
            tr = self.engine.tracer
            if tr.enabled:
                # useful-work span for the single-threaded MPI baselines
                # (repro.perf derives per-rank efficiency from these)
                tr.span("proc", "compute", t0, self.engine.now,
                        rank=self.mpi.rank)

    def isend(self, buf, dest: int, tag: int) -> Generator:
        req = self.mpi.isend(buf, dest, tag)
        yield from self._realize()
        return req

    def isend_batch(self, bufs, dest: int, tags) -> Generator:
        """Issue ``len(bufs)`` sends to ``dest`` in one library entry and
        realize the whole charge once (see :meth:`MPIRank.isend_batch`)."""
        reqs = self.mpi.isend_batch(bufs, dest, tags)
        yield from self._realize()
        return reqs

    def irecv(self, buf, source: int, tag: int) -> Generator:
        req = self.mpi.irecv(buf, source, tag)
        yield from self._realize()
        return req

    def wait(self, req: Request) -> Generator:
        yield from self._realize()
        yield from self.mpi.wait(req)
        yield from self._realize()

    def waitall(self, reqs: Sequence[Request]) -> Generator:
        yield from self._realize()
        yield from self.mpi.waitall(reqs)
        yield from self._realize()

    def barrier(self) -> Generator:
        yield from self._realize()
        yield from self.mpi.barrier()
        yield from self._realize()

    sync = _realize

    @property
    def now(self) -> float:
        return self.engine.now


@contextlib.contextmanager
def eager():
    """Run jobs built inside the block on the eager oracle."""
    saved = _comm.Request, _runner.MPIProcDriver
    _comm.Request, _runner.MPIProcDriver = Request, MPIProcDriver
    try:
        yield
    finally:
        _comm.Request, _runner.MPIProcDriver = saved
