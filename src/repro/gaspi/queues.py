"""GASPI communication queues and low-level requests.

Each queue is a FIFO channel for RMA submissions. Submission serializes on
a per-queue :class:`~repro.sim.serial.SerialDevice` (hold time =
``gaspi.op``), so concurrent tasks posting to *different* queues do not
contend at all — the multiplexing strategy the paper's sender tasks use —
and even same-queue contention is an order of magnitude cheaper than the
MPI global lock. The queue sums its submissions' wait and hold time.

A :class:`LowLevelRequest` records one ibverbs-like work request: its user
tag and the absolute sim time of its local completion (when the source
buffer may be reused). ``request_wait`` (on :class:`GaspiRank`) harvests
completed requests by comparing those times against "now" — no events
needed, which keeps polling cheap in the DES.
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass, field
from typing import List

from repro.sim.serial import SerialDevice

#: process-wide monotonic request serials: a stable identity for targeted
#: purge (``id()`` would do the same job only until the allocator reuses a
#: freed request's address)
_request_serials = itertools.count()


@dataclass(slots=True)
class LowLevelRequest:
    """One hardware-level work request created by a GASPI operation."""

    tag: int
    #: absolute sim time of local completion
    done_at: float
    #: operation kind that created it (diagnostics)
    op: str
    #: absolute sim time of submission (trace timelines)
    submitted_at: float = 0.0
    #: destination rank (recovery diagnostics / connection health)
    dest: "int | None" = None
    #: monotonic identity (never reused, unlike ``id()``)
    serial: int = field(default_factory=_request_serials.__next__)


class GaspiQueue:
    """One communication queue of one rank."""

    __slots__ = ("queue_id", "device", "wait_time", "hold_time", "inflight",
                 "submitted", "harvested", "purged")

    def __init__(self, queue_id: int):
        self.queue_id = queue_id
        self.device = SerialDevice()
        #: submission seconds spent queued behind other submissions, and
        #: holding the queue
        self.wait_time = 0.0
        self.hold_time = 0.0
        #: locally incomplete (or complete but unharvested) requests, FIFO
        self.inflight: List[LowLevelRequest] = []
        self.submitted = 0
        self.harvested = 0
        self.purged = 0

    def post(self, req: LowLevelRequest) -> None:
        self.inflight.append(req)
        self.submitted += 1

    def harvest(self, max_reqs: int, now: float) -> List[LowLevelRequest]:
        """Remove and return up to ``max_reqs`` requests whose local
        completion time has passed."""
        done: List[LowLevelRequest] = []
        remaining: List[LowLevelRequest] = []
        for req in self.inflight:
            if len(done) < max_reqs and req.done_at <= now:
                done.append(req)
            else:
                remaining.append(req)
        self.inflight = remaining
        self.harvested += len(done)
        return done

    def purge(self) -> List[LowLevelRequest]:
        """``gaspi_queue_purge``: abandon *all* in-flight requests without
        harvesting them; returns the abandoned requests."""
        abandoned, self.inflight = self.inflight, []
        self.purged += len(abandoned)
        return abandoned

    def remove(self, reqs: List[LowLevelRequest]) -> List[LowLevelRequest]:
        """Abandon a specific set of requests (by identity) — the targeted
        purge TAGASPI's recovery uses to re-submit one timed-out operation
        without disturbing the rest of the queue."""
        targets = {r.serial for r in reqs}
        removed = [r for r in self.inflight if r.serial in targets]
        if removed:
            self.inflight = [r for r in self.inflight if r.serial not in targets]
            self.purged += len(removed)
        return removed

    @property
    def depth(self) -> int:
        return len(self.inflight)
