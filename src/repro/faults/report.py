"""Structured fault reporting.

A :class:`FaultReport` accumulates the notable fault events of one run —
scripted faults firing, messages declared lost, GASPI timeouts, library
re-submissions, releases, and aborts — as typed :class:`FaultEvent` records
plus per-kind counts. High-frequency probabilistic events (every dropped or
duplicated wire message) are *counted* by
:class:`repro.faults.injector.FaultStats` instead of recorded here, so the
report stays small even under severe plans.

:class:`FaultAbort` is the structured failure raised when a
:class:`~repro.faults.plan.RecoveryPolicy` with ``on_exhaustion="abort"``
gives up; it carries the report so the caller can print a post-mortem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class FaultEvent:
    """One recorded fault occurrence (simulated time, layer, kind)."""

    t: float
    #: originating layer: "net", "gaspi", "mpi", "tagaspi", "tampi"
    layer: str
    #: event kind: "scripted", "stall", "lost", "timeout", "resubmit", …
    kind: str
    rank: Optional[object] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = "" if self.rank is None else f" r{self.rank}"
        return f"<FaultEvent t={self.t:.6g} {self.layer}.{self.kind}{where}>"


class FaultReport:
    """Bounded log of fault events plus per-kind counts."""

    def __init__(self, max_events: int = 1000):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        self.events: List[FaultEvent] = []
        #: events dropped once the bounded log filled up (counts still kept)
        self.truncated = 0
        self.counts: Dict[str, int] = {}

    def record(self, t: float, layer: str, kind: str,
               rank: Optional[object] = None, **detail) -> None:
        key = f"{layer}.{kind}"
        self.counts[key] = self.counts.get(key, 0) + 1
        if len(self.events) >= self.max_events:
            self.truncated += 1
            return
        self.events.append(FaultEvent(t, layer, kind, rank, detail))

    def count(self, key: str) -> int:
        """Occurrences of ``"layer.kind"`` (including truncated ones)."""
        return self.counts.get(key, 0)

    def __len__(self) -> int:
        return len(self.events)

    def summary(self) -> str:
        """Human-readable per-kind tally plus the first few events."""
        lines = ["FaultReport"]
        if not self.counts:
            lines.append("  (no fault events)")
            return "\n".join(lines)
        for key in sorted(self.counts):
            lines.append(f"  {key}: {self.counts[key]}")
        for ev in self.events[:10]:
            args = " ".join(f"{k}={v}" for k, v in ev.detail.items())
            who = "" if ev.rank is None else f" rank={ev.rank}"
            lines.append(f"  @{ev.t:.6g}s {ev.layer}.{ev.kind}{who} {args}".rstrip())
        if len(self.events) > 10:
            lines.append(f"  … {len(self.events) - 10 + self.truncated} more events")
        elif self.truncated:
            lines.append(f"  … {self.truncated} more events (truncated)")
        return "\n".join(lines)


class FaultAbort(RuntimeError):
    """A recovery policy exhausted its retries with ``on_exhaustion="abort"``.

    Propagates out of the library poller through its worker core's engine
    callback up to ``Job.run`` — the simulated analogue of the application
    calling ``gaspi_proc_term`` after an unrecoverable error.
    """

    def __init__(self, message: str, report: Optional[FaultReport] = None,
                 rank: Optional[object] = None, op: Optional[str] = None):
        super().__init__(message)
        self.report = report
        self.rank = rank
        self.op = op
