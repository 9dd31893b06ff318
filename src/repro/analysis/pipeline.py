"""The checker pipeline core: findings, and the tracer that feeds them.

:class:`AnalysisPipeline` is a :class:`~repro.trace.Tracer`: it observes a
run through ``engine.tracer`` like every other observer, reading the typed
emits the checkers need and no generic record. Design constraints
(identical to :mod:`repro.trace.tracer`):

* **One observer hook.** With no pipeline installed nothing is checked, at
  the cost of the ``tr.enabled`` branch every instrumented site has anyway.
* **Deterministic.** Findings carry only simulated time and model state —
  never wall-clock or object ids — so identical seeds produce identical
  findings (asserted by ``tests/test_analysis.py``).
* **Passive.** Checking never schedules events, charges CPU, or otherwise
  perturbs the simulation: a checked run is bit-identical in sim time and
  results to an unchecked one (asserted by ``tests/test_determinism.py``).

The pipeline hosts three dynamic checkers (each individually switchable):

* :class:`~repro.analysis.races.RaceDetector` — vector-clock happens-before
  RMA race detection per segment byte-range;
* :class:`~repro.analysis.deadlock.DeadlockDiagnoser` — wait-for graph over
  blocked primitives, reported on cycle or event-budget exhaustion;
* the finalize-time resource lint of :mod:`repro.analysis.resources`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.trace.tracer import UNRECORDED, FanOut, Tracer

#: finding severities: ``error`` findings fail a ``check="strict"`` run;
#: ``warning`` findings are reported but tolerated (e.g. the trailing
#: unconsumed halo notification every wavefront code leaves at job end).
SEV_ERROR = "error"
SEV_WARNING = "warning"

#: the MPI request registry is never pruned below this many entries
_MIN_PRUNE = 64


@dataclass(frozen=True)
class Finding:
    """One checker finding. Carries only simulated time and model state."""

    checker: str            #: "races" | "deadlock" | "resources"
    kind: str               #: machine-readable finding class
    severity: str           #: SEV_ERROR or SEV_WARNING
    rank: object            #: process the finding is attributed to
    time: float             #: simulated time of detection
    message: str            #: human-readable description
    details: Tuple = ()     #: sorted (key, value) pairs for tooling

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (f"[{self.severity}] {self.checker}/{self.kind} "
                f"rank={self.rank} t={self.time:.6g}s: {self.message}")


class AnalysisError(RuntimeError):
    """Raised at finalize by a ``check="strict"`` run with error findings."""

    def __init__(self, message: str, findings: List[Finding]):
        super().__init__(message)
        self.findings = findings


def _actor(rank: object) -> str:
    """Normalize a process identity: int GASPI/MPI ranks and the harness's
    ``rank{N}`` runtime names address the same simulated process."""
    return f"rank{rank}" if isinstance(rank, int) else str(rank)


@dataclass
class WaitRecord:
    """One active blocking primitive (registered by the layer's generator
    around its suspension, removed in its ``finally``)."""

    actor: str
    site: str               #: "notify_waitsome", "mpi_wait", "taskwait", ...
    since: float
    info: Dict[str, object] = field(default_factory=dict)


class AnalysisPipeline(Tracer):
    """Collects correctness findings from the instrumented stack.

    Parameters
    ----------
    races / deadlock / resources:
        Enable the individual checkers (all on by default).
    strict:
        :meth:`finalize` raises :class:`AnalysisError` when error-severity
        findings were recorded (``JobSpec(check="strict")``).
    """

    #: no generic record, and of the recorded emits only these five
    reads = frozenset(("task_submit", "task_done", "msg_send", "msg_deliver",
                       "gaspi_submit") + UNRECORDED)

    def __init__(self, races: bool = True, deadlock: bool = True,
                 resources: bool = True, strict: bool = False):
        from repro.analysis.deadlock import DeadlockDiagnoser
        from repro.analysis.races import RaceDetector

        super().__init__(progress_every=None)
        self.strict = strict
        self.engine = None
        self.race_detector: Optional[RaceDetector] = None
        if races:
            rd = self.race_detector = RaceDetector(self)
            # the segment emits go straight to the race detector
            self.put_delivered = rd.on_put_delivered
            self.notify_delivered = rd.on_notify_delivered
            self.remote_read = rd.on_remote_read
            self.read_resp = rd.on_read_resp
            self.notify_consumed = rd.on_consume
            self.local_access = rd.on_local_access
        self.deadlock_diagnoser: Optional[DeadlockDiagnoser] = (
            DeadlockDiagnoser(self) if deadlock else None)
        self.check_resources = resources
        self.findings: List[Finding] = []
        self.warnings: List[Finding] = []
        #: registered layer objects, pulled at diagnosis/finalize time
        self.gaspi_ctx = None
        self.cluster = None
        self.tagaspi_libs: List = []
        self.runtimes: List = []
        #: live (created, not yet done) MPI requests, in registration
        #: order: finished ones are pruned as registrations accumulate
        self.mpi_requests: List = []
        self._mpi_prune_at = _MIN_PRUNE
        #: live non-independent tasks: (runtime name, task uid) -> task
        self.live_tasks: Dict[Tuple[str, int], object] = {}
        #: in-flight (sent, undelivered) messages: edge id -> summary tuple
        self.inflight_msgs: Dict[int, Tuple] = {}
        #: active blocking waits, in registration order: key -> WaitRecord
        self._waits: Dict[object, WaitRecord] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # installation / layer registration
    # ------------------------------------------------------------------
    def install(self, engine) -> "AnalysisPipeline":
        """Observe ``engine``: become its tracer, or join the one it has
        through a :class:`~repro.trace.tracer.FanOut`. Returns the
        pipeline."""
        self.engine = engine
        tr = engine.tracer
        engine.tracer = FanOut(tr, self) if tr.enabled else self
        return self

    def attach_cluster(self, cluster) -> None:
        self.cluster = cluster
        if self.race_detector is not None:
            self.race_detector.set_ranks(cluster.n_ranks)

    def attach_gaspi(self, gaspi_ctx) -> None:
        self.gaspi_ctx = gaspi_ctx

    def attach_tagaspi(self, tagaspi) -> None:
        self.tagaspi_libs.append(tagaspi)

    def attach_runtime(self, runtime) -> None:
        self.runtimes.append(runtime)

    # ------------------------------------------------------------------
    # finding collection
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return 0.0 if self.engine is None else self.engine.now

    def add_finding(self, checker: str, kind: str, severity: str,
                    rank: object, message: str, **details) -> Finding:
        f = Finding(checker=checker, kind=kind, severity=severity,
                    rank=_actor(rank), time=self._now(), message=message,
                    details=tuple(sorted(details.items())))
        (self.findings if severity == SEV_ERROR else self.warnings).append(f)
        return f

    # ------------------------------------------------------------------
    # the emits the checkers read
    # ------------------------------------------------------------------
    def gaspi_submit(self, rank, operation, t0, t1, wait, queue, count,
                     depth, local_seg=None, local_off=0, dest=None,
                     remote_seg=None, remote_off=0, notif_id=None) -> None:
        rd = self.race_detector
        if rd is not None:
            rd.on_submit(rank, operation, queue, local_seg, local_off, dest,
                         remote_seg, remote_off, count, notif_id)

    def mpi_request(self, req) -> None:
        reqs = self.mpi_requests
        reqs.append(req)
        if len(reqs) >= self._mpi_prune_at:
            # amortised O(1): filter once the list doubles past its last
            # live size. ``done`` never turns False again, and the readers
            # (deadlock diagnosis, finalize lint) skip done requests anyway
            reqs[:] = [r for r in reqs if not r.done]
            self._mpi_prune_at = max(_MIN_PRUNE, 2 * len(reqs))

    def task_submit(self, runtime, task, preds) -> None:
        self.live_tasks[(runtime.name, task.uid)] = task

    def task_done(self, runtime, task) -> None:
        self.live_tasks.pop((runtime.name, task.uid), None)

    def msg_send(self, msg, eid, t) -> None:
        self.inflight_msgs[eid] = (
            msg.src_rank, msg.dst_rank, msg.protocol, msg.kind, msg.nbytes)

    def msg_deliver(self, msg, eid, t) -> None:
        self.inflight_msgs.pop(eid, None)

    # blocking-wait registry (deadlock diagnosis)
    def wait_enter(self, key, rank, site: str, **info) -> None:
        self._waits[key] = WaitRecord(actor=_actor(rank), site=site,
                                      since=self._now(), info=info)

    def wait_exit(self, key) -> None:
        self._waits.pop(key, None)

    @property
    def active_waits(self) -> List[WaitRecord]:
        return list(self._waits.values())

    # ------------------------------------------------------------------
    # diagnosis & finalize
    # ------------------------------------------------------------------
    def deadlock_report(self) -> str:
        """Wait-for diagnosis of the current blocked state (used to enrich
        budget-exhaustion and drained-queue errors); "" when the deadlock
        checker is off."""
        if self.deadlock_diagnoser is None:
            return ""
        return self.deadlock_diagnoser.diagnose()

    def finalize(self) -> List[Finding]:
        """Run the finalize-time resource lint and, in strict mode, raise
        :class:`AnalysisError` if any error finding was recorded. Returns
        the error findings. Idempotent."""
        if not self._finalized:
            self._finalized = True
            if self.check_resources:
                from repro.analysis.resources import collect_resource_findings
                collect_resource_findings(self)
        if self.strict and self.findings:
            lines = [str(f) for f in self.findings]
            raise AnalysisError(
                "correctness analysis found "
                f"{len(self.findings)} error(s):\n  " + "\n  ".join(lines),
                list(self.findings),
            )
        return list(self.findings)

    def report(self) -> str:
        """Human-readable summary of all findings and warnings."""
        lines = [f"analysis: {len(self.findings)} error(s), "
                 f"{len(self.warnings)} warning(s)"]
        for f in self.findings + self.warnings:
            lines.append(f"  {f}")
        return "\n".join(lines)
