"""Pending-notification objects and their pool allocator (paper §IV-D).

A :class:`PendingNotification` must outlive the ``tagaspi_notify_iwait``
call that created it (it persists until the notification arrives), so the
real library manages a pool with a lock-free free-queue instead of heap
allocation. We keep the pool (reuse statistics are asserted in tests, and
the per-acquire cost models the fast path) and the intrusive-list usage:
drained objects link into the poller's plain Python list, which stands in
for the Boost intrusive list (no per-node allocation).
"""

from __future__ import annotations

import itertools

from typing import List, Optional

from repro.sim.context import charge_current
from repro.sim.engine import Engine

#: pool fast-path cost (pop from the free queue)
ACQUIRE_COST = 0.02e-6

#: per-assignment serials: pooled objects are *recycled*, so ``id()`` is
#: genuinely ambiguous across waits — every assign() gets a fresh identity
_notif_serials = itertools.count()


class PendingNotification:
    """State of one in-flight ``tagaspi_notify_iwait``."""

    __slots__ = ("seg_id", "notif_id", "out", "task", "is_pre",
                 "registered_at", "serial")

    def __init__(self) -> None:
        self.seg_id = -1
        self.notif_id = -1
        self.out: Optional[object] = None
        self.task = None
        self.is_pre = False
        #: registration time, used by the recovery policy's deadline check
        self.registered_at = 0.0
        #: monotonic identity of the current assignment (never reused)
        self.serial = -1

    def assign(self, seg_id: int, notif_id: int, out, task, is_pre: bool,
               registered_at: float = 0.0) -> "PendingNotification":
        self.seg_id = seg_id
        self.notif_id = notif_id
        self.out = out
        self.task = task
        self.is_pre = is_pre
        self.registered_at = registered_at
        self.serial = next(_notif_serials)
        return self

    def clear(self) -> None:
        self.out = None
        self.task = None


class ObjectPool:
    """Free-list pool of :class:`PendingNotification` objects."""

    __slots__ = ("engine", "_free", "allocated", "reused")

    def __init__(self, engine: Engine, preallocate: int = 64):
        self.engine = engine
        self._free: List[PendingNotification] = [
            PendingNotification() for _ in range(preallocate)
        ]
        self.allocated = 0
        self.reused = 0

    def acquire(self) -> PendingNotification:
        charge_current(self.engine, ACQUIRE_COST)
        if self._free:
            self.reused += 1
            return self._free.pop()
        self.allocated += 1
        return PendingNotification()

    def release(self, obj: PendingNotification) -> None:
        obj.clear()
        self._free.append(obj)
