"""The tracer core: typed records and the null-tracer fast path.

Design constraints (mirroring Extrae's):

* **Zero cost when disabled.** Every instrumentation site in the stack is
  written as ``tr = engine.tracer; if tr.enabled: tr.span(...)`` — with the
  process-wide :data:`NULL_TRACER` installed (the default), the per-site
  cost is one attribute read and a falsy branch, and *nothing* is recorded.
* **Deterministic.** Records carry only simulated time and model state —
  never wall-clock or object ids — so identical seeds produce identical
  traces (asserted by ``tests/test_determinism.py``).
* **Passive.** Recording never schedules events, charges CPU, or otherwise
  perturbs the simulation: a traced run is bit-identical in sim time to an
  untraced one.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional


class TraceRecord(NamedTuple):
    """One trace record.

    ``kind`` is ``"span"`` (an interval ``[t0, t1]``), ``"instant"`` (a
    point, ``t1 == t0``), or ``"counter"`` (a sampled value, stored in
    ``args["value"]``). ``rank`` identifies the process lane (an int rank,
    a runtime name, or ``None`` for global records) and ``lane`` the thread
    lane within it (e.g. a worker core).
    """

    kind: str
    category: str
    name: str
    rank: object
    lane: Optional[str]
    t0: float
    t1: float
    args: Dict[str, object]


class Tracer:
    """Collects :class:`TraceRecord` instances from the instrumented stack.

    Parameters
    ----------
    engine_events:
        Also record one instant per fired DES event (very verbose; off by
        default — the engine's periodic progress records are usually what
        you want).
    progress_every:
        Emit an engine progress span + queue-depth counter every N fired
        events (the ``sim`` category's timeline). ``None`` disables.
    """

    enabled = True

    def __init__(self, engine_events: bool = False,
                 progress_every: Optional[int] = 10_000):
        if progress_every is not None and progress_every < 1:
            raise ValueError("progress_every must be >= 1 or None")
        self.engine_events = engine_events
        self.progress_every = progress_every
        self.records: List[TraceRecord] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, category: str, name: str, t0: float, t1: float,
             rank: object = None, lane: Optional[str] = None, **args) -> None:
        """Record a completed interval ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError(f"span {category}/{name}: t1={t1} < t0={t0}")
        self.records.append(
            TraceRecord("span", category, name, rank, lane, t0, t1, args)
        )

    def instant(self, category: str, name: str, t: float,
                rank: object = None, lane: Optional[str] = None, **args) -> None:
        """Record a point occurrence at time ``t``."""
        self.records.append(
            TraceRecord("instant", category, name, rank, lane, t, t, args)
        )

    def counter(self, category: str, name: str, t: float, value: float,
                rank: object = None) -> None:
        """Record a sampled counter value at time ``t``."""
        self.records.append(
            TraceRecord("counter", category, name, rank, None, t, t,
                        {"value": value})
        )

    # typed emits (the two hottest sites): the base implementation *is*
    # the generic record; a subclass may read the objects' slots instead
    def task_on_core(self, worker, task, t0: float, outcome: str) -> None:
        """One on-core interval of ``task`` on ``worker``, ending now."""
        self.span("tasking", task.label, t0, worker.engine.now,
                  rank=worker.runtime.name, lane=worker.lane,
                  uid=task.uid, outcome=outcome)

    def task_done(self, runtime, task) -> None:
        """``task`` completed now (body finished, events fulfilled)."""
        self.instant("tasking", "task_done", runtime.engine.now,
                     rank=runtime.name, task=task.label, uid=task.uid,
                     created=task.created_at, ready=task.ready_at,
                     started=task.started_at, finished=task.finished_at,
                     cpu=task.cpu_time)

    # ------------------------------------------------------------------
    # queries (used by tests, the text exporter, and the CLI)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def spans(self, category: Optional[str] = None) -> Iterator[TraceRecord]:
        for rec in self.records:
            if rec.kind == "span" and (category is None or rec.category == category):
                yield rec

    def categories(self) -> List[str]:
        """Distinct record categories, in first-appearance order."""
        seen: Dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.category, None)
        return list(seen)

    def total_time(self, category: str) -> float:
        """Summed duration of all spans in ``category``."""
        return sum(r.t1 - r.t0 for r in self.spans(category))

    def time_by_category(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for rec in self.records:
            if rec.kind == "span":
                out[rec.category] = out.get(rec.category, 0.0) + (rec.t1 - rec.t0)
        return out


class _NullTracer(Tracer):
    """The process-wide disabled tracer: records nothing, ever.

    Instrumentation sites check :attr:`enabled` before building any record
    arguments, so with this installed tracing costs one attribute read per
    site. The no-op methods below are a second line of defence for call
    sites that skip the guard.
    """

    enabled = False

    def __init__(self):
        super().__init__(engine_events=False, progress_every=None)

    def span(self, *a, **k) -> None:  # pragma: no cover - guarded call sites
        pass

    def instant(self, *a, **k) -> None:  # pragma: no cover
        pass

    def counter(self, *a, **k) -> None:  # pragma: no cover
        pass


#: Process-wide null tracer installed on every engine by default.
NULL_TRACER = _NullTracer()
