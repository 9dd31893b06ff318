"""Region dependency tracking.

Dependencies are declared on hashable *region keys* — typically tuples like
``("block", i, j)`` or ``("notified", peer)`` — with an access mode:

* ``In(key)`` — read access; ordered after the last writer.
* ``Out(key)`` / ``InOut(key)`` — write access; ordered after the last
  writer *and* every reader since (readers–writers semantics, the same
  ordering ``depend(in/out/inout:)`` gives in OpenMP/OmpSs-2).

This is the list-item model (exact key equality), which is how the paper's
applications use dependencies (whole blocks / whole halo buffers /
sentinel variables like ``notified``). Partial-overlap region analysis is
out of scope (DESIGN.md §5).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, TYPE_CHECKING

from repro.tasking.task import TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.tasking.task import Task

MODE_IN = "in"
MODE_OUT = "out"
MODE_INOUT = "inout"
_ALL_MODES = (MODE_IN, MODE_OUT, MODE_INOUT)


class Dep:
    """An access ``mode`` on a region ``key``, compared and hashed by
    both. Never mutated: one ``Dep`` may be shared by many tasks.

    The mode is validated once, here, and folded into ``writes`` so
    registration never compares mode strings. Apps that submit the same
    accesses every timestep build the ``Dep`` tuple once and reuse it.
    """

    __slots__ = ("mode", "key", "writes")

    def __init__(self, mode: str, key: Hashable) -> None:
        if mode not in _ALL_MODES:
            raise ValueError(f"bad dependency mode {mode!r}")
        self.mode = mode
        self.key = key
        self.writes = mode != MODE_IN

    def __eq__(self, other):
        if other.__class__ is not Dep:
            return NotImplemented
        return self.mode == other.mode and self.key == other.key

    def __hash__(self) -> int:
        return hash((self.mode, self.key))

    def __repr__(self) -> str:
        return f"Dep(mode={self.mode!r}, key={self.key!r})"


def In(key: Hashable) -> Dep:
    """Read dependency on ``key``."""
    return Dep(MODE_IN, key)


def Out(key: Hashable) -> Dep:
    """Write dependency on ``key``."""
    return Dep(MODE_OUT, key)


def InOut(key: Hashable) -> Dep:
    """Read-write dependency on ``key``."""
    return Dep(MODE_INOUT, key)


def dep(mode: str, key: Hashable) -> Dep:
    """Generic constructor, e.g. ``dep("in", ("block", 3))``."""
    return Dep(mode, key)


class _RegionState:
    __slots__ = ("last_writer", "readers")

    def __init__(self) -> None:
        self.last_writer = None
        self.readers: List["Task"] = []


class DependencyTracker:
    """Per-runtime readers–writers bookkeeping over region keys."""

    def __init__(self) -> None:
        self._regions: Dict[Hashable, _RegionState] = {}
        self.edges = 0

    def register(self, task: "Task", deps: Sequence[Dep],
                 preds: Optional[List["Task"]] = None) -> int:
        """Record ``task``'s accesses ``deps``; returns the number of
        predecessor edges added (0 means the task is immediately ready).

        ``deps`` is read here and not kept, so one tuple may be shared by
        every task that makes the same accesses. ``preds``, when given,
        collects the predecessor tasks of every edge added — the explicit
        dependency edges the tracer exports for post-mortem critical-path
        analysis (:mod:`repro.perf`).
        """
        added = 0
        regions = self._regions
        for d in deps:
            region = regions.get(d.key)
            if region is None:
                region = regions[d.key] = _RegionState()
            w = region.last_writer
            if w is not None and w is not task and w.state is not TaskState.COMPLETED:
                # a successor list is created at the task's first out-edge
                if w.successors is None:
                    w.successors = [task]
                else:
                    w.successors.append(task)
                added += 1
                if preds is not None:
                    preds.append(w)
            if not d.writes:
                region.readers.append(task)
                continue
            # out / inout: also after every reader since the last writer
            readers = region.readers
            for r in readers:
                if r is not task and r.state is not TaskState.COMPLETED:
                    if r.successors is None:
                        r.successors = [task]
                    else:
                        r.successors.append(task)
                    added += 1
                    if preds is not None:
                        preds.append(r)
            region.last_writer = task
            readers.clear()
            # inout also reads, but as the new last writer it already
            # orders every later access; no reader entry needed
        self.edges += added
        return added

    def prune(self) -> None:
        """Drop regions whose entire history has completed (memory bound
        for long-running simulations)."""
        dead = [
            k
            for k, st in self._regions.items()
            if (st.last_writer is None or st.last_writer.state is TaskState.COMPLETED)
            and all(r.state is TaskState.COMPLETED for r in st.readers)
        ]
        for k in dead:
            del self._regions[k]
