"""Job construction and execution.

A :class:`JobSpec` describes one experimental point (machine, node count,
variant, polling period, seed); :func:`build_job` assembles the simulated
cluster and the per-rank contexts the variant needs. Application runners
then attach per-rank main processes and call :meth:`Job.run`.

Rank layouts follow the paper:

* ``mpi``      — ``cores_per_node`` single-threaded ranks per node;
* ``tampi`` / ``tagaspi`` — ``ranks_per_node`` runtimes per node (default
  1), each with ``cores_per_node / ranks_per_node`` worker cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.pipeline import AnalysisPipeline
from repro.collectives.base import BACKENDS
from repro.core import TAGASPI
from repro.faults import FaultInjector, FaultPlan, FaultReport
from repro.gaspi import GaspiContext
from repro.harness.machines import Machine
from repro.mpi import MPIContext, MPIProcDriver
from repro.network import Cluster
from repro.sim import Engine, derive_rng
from repro.tampi import TAMPI
from repro.tasking import Runtime, RuntimeConfig
from repro.trace import MetricsRegistry, Tracer


class VariantError(ValueError):
    """Unknown or inconsistent variant configuration."""


VARIANTS = ("mpi", "tampi", "tagaspi")


@dataclass
class JobSpec:
    """One experimental configuration."""

    machine: Machine
    n_nodes: int
    variant: str
    #: hybrid ranks per node (1 = one runtime spanning the node, the
    #: paper's Streaming/GS-on-CTE layout; 2 = one per socket)
    ranks_per_node: int = 1
    #: polling period for the task-aware library, microseconds
    poll_period_us: float = 150.0
    #: GASPI queues per rank (tagaspi only)
    n_queues: int = 8
    #: RNG seed for network jitter and app randomness; None disables jitter
    seed: Optional[int] = 1
    #: tasking overhead configuration override
    runtime_config: Optional[RuntimeConfig] = None
    #: fault scenario (repro.faults); None or an empty plan leaves the
    #: simulation bit-identical to a fault-free run
    faults: Optional[FaultPlan] = None
    #: correctness analysis (repro.analysis): None disables every checker;
    #: "report" runs them (on ``engine.tracer``) and keeps findings on
    #: ``job.analysis``; "strict" additionally raises
    #: :class:`repro.analysis.AnalysisError` on any error-severity finding.
    #: Checked runs are bit-identical to unchecked ones.
    check: Optional[str] = None
    #: performance diagnosis (repro.perf): when True the job observes
    #: itself (:meth:`Job.perf_metrics`) and the app runner merges the
    #: ``perf_*`` metrics into ``VariantResult.extra``. Observing is passive,
    #: so a ``perf=True`` run is bit-identical in sim time to a plain one.
    perf: bool = False
    #: collective-communication substrate for apps built on
    #: ``repro.collectives`` (``"twosided"``, ``"rma"``, ``"gaspi"``;
    #: ``None`` leaves the choice to the app, which defaults to
    #: ``twosided``). ``backend="gaspi"`` jobs get a GASPI context even
    #: under the pure-``mpi`` variant so notification pipelines are
    #: available to single-threaded rank processes.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise VariantError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.backend is not None and self.backend not in BACKENDS:
            raise VariantError(
                f"backend must be None or one of {BACKENDS}, got {self.backend!r}")
        if self.check not in (None, "report", "strict"):
            raise VariantError(
                f"check must be None, 'report', or 'strict', got {self.check!r}")
        if self.n_nodes < 1:
            raise VariantError("n_nodes must be >= 1")
        if self.variant == "mpi":
            self.ranks_per_node = self.machine.cores_per_node
        elif self.machine.cores_per_node % self.ranks_per_node != 0:
            raise VariantError(
                f"{self.ranks_per_node} ranks/node does not divide "
                f"{self.machine.cores_per_node} cores/node"
            )

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.ranks_per_node

    @property
    def cores_per_rank(self) -> int:
        return self.machine.cores_per_node // self.ranks_per_node

    @property
    def is_hybrid(self) -> bool:
        return self.variant != "mpi"


class Job:
    """An assembled simulation: cluster + per-rank substrate contexts.

    ``tracer`` (a :class:`repro.trace.Tracer`) enables timeline recording
    across every instrumented layer; by default the zero-cost null tracer
    is installed. :attr:`tracer` stays that observer when ``spec.check``
    adds the checkers beside it on ``engine.tracer`` (:attr:`analysis`).
    :attr:`registry` holds one metrics collector per layer;
    :meth:`run` sweeps it into :attr:`metrics` after the job completes.
    """

    def __init__(self, spec: JobSpec, tracer: Optional[Tracer] = None):
        self.spec = spec
        if tracer is None and spec.perf:
            # no timeline asked for: fold the model online, record nothing
            from repro.perf import PerfTracer

            tracer = PerfTracer()
        self.engine = Engine(tracer=tracer)
        self.tracer = self.engine.tracer
        rng = None if spec.seed is None else derive_rng(spec.seed, "net")
        self.cluster = Cluster(self.engine, spec.n_nodes, spec.machine.fabric, rng=rng)
        self.cluster.place_ranks_block(spec.n_ranks, spec.ranks_per_node)

        # fault injection: installed before any substrate context so node
        # stalls are scheduled first and the injector hook is visible to
        # every layer. Empty/absent plans install nothing — bit-identical.
        self.injector: Optional[FaultInjector] = None
        self.fault_report: Optional[FaultReport] = None
        recovery = None
        if spec.faults is not None:
            recovery = spec.faults.recovery
            if not spec.faults.empty:
                fault_rng = derive_rng(
                    spec.seed if spec.seed is not None else 0, "faults")
                self.injector = FaultInjector(
                    spec.faults, self.engine, rng=fault_rng)
                self.injector.install(self.cluster)
                self.fault_report = self.injector.report

        self.mpi: Optional[MPIContext] = None
        self.gaspi: Optional[GaspiContext] = None
        self.runtimes: List[Runtime] = []
        self.tampi: List[TAMPI] = []
        self.tagaspi: List[TAGASPI] = []
        self.drivers: List[MPIProcDriver] = []

        if spec.variant == "mpi":
            self.mpi = MPIContext(self.cluster)
            self.drivers = [MPIProcDriver(self.mpi.rank(r)) for r in range(spec.n_ranks)]
        else:
            rt_cfg = spec.runtime_config or RuntimeConfig(n_cores=spec.cores_per_rank)
            if rt_cfg.n_cores != spec.cores_per_rank:
                raise VariantError(
                    f"runtime_config.n_cores={rt_cfg.n_cores} != cores_per_rank="
                    f"{spec.cores_per_rank}"
                )
            self.runtimes = [
                Runtime(self.engine, rt_cfg, name=f"rank{r}")
                for r in range(spec.n_ranks)
            ]
            if spec.variant == "tampi":
                self.mpi = MPIContext(self.cluster)
                self.tampi = [
                    TAMPI(self.runtimes[r], self.mpi.rank(r), spec.poll_period_us,
                          recovery=recovery)
                    for r in range(spec.n_ranks)
                ]
            else:  # tagaspi — MPI also available (library mixing, §VI-B)
                self.gaspi = GaspiContext(self.cluster, n_queues=spec.n_queues)
                self.mpi = MPIContext(self.cluster)
                self.tagaspi = [
                    TAGASPI(self.runtimes[r], self.gaspi.rank(r), spec.poll_period_us,
                            recovery=recovery)
                    for r in range(spec.n_ranks)
                ]
                self.tampi = [
                    TAMPI(self.runtimes[r], self.mpi.rank(r), spec.poll_period_us,
                          recovery=recovery)
                    for r in range(spec.n_ranks)
                ]

        # the gaspi collective backend needs segments/notifications even in
        # variants that otherwise carry no GASPI context; created here so
        # the analysis pipeline and metrics collectors below see it
        if spec.backend == "gaspi" and self.gaspi is None:
            self.gaspi = GaspiContext(self.cluster, n_queues=spec.n_queues)

        #: correctness-checker pipeline (spec.check != None); findings are
        #: on ``analysis.findings`` / ``analysis.warnings`` after run()
        self.analysis: Optional[AnalysisPipeline] = None
        if spec.check is not None:
            pl = AnalysisPipeline(strict=(spec.check == "strict"))
            pl.install(self.engine)
            pl.attach_cluster(self.cluster)
            if self.gaspi is not None:
                pl.attach_gaspi(self.gaspi)
            for t in self.tagaspi:
                pl.attach_tagaspi(t)
            for rt in self.runtimes:
                pl.attach_runtime(rt)
            self.analysis = pl

        #: per-layer counter registry, swept into :attr:`metrics` by run()
        self.registry = MetricsRegistry()
        self._install_collectors()
        #: last sweep of :attr:`registry` (populated by :meth:`run`)
        self.metrics: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _install_collectors(self) -> None:
        """Register one collector per substrate layer of this job."""
        reg = self.registry
        reg.register("network", self._collect_network)
        if self.injector is not None:
            reg.register("faults", self.injector.stats.as_dict)
        for t in self.tagaspi:
            if t.recovery is not None:
                reg.register("tagaspi_recovery", lambda t=t: {
                    "tagaspi_resubmits": t.stats_resubmits,
                    "tagaspi_releases": t.stats_releases,
                })
        for t in self.tampi:
            if t.recovery is not None:
                reg.register("tampi_recovery", lambda t=t: {
                    "tampi_timeouts": t.stats_timeouts,
                })
        if self.mpi is not None:
            reg.register("mpi", self._collect_mpi)
        if self.gaspi is not None:
            reg.register("gaspi", self._collect_gaspi)
        for t in self.tampi:
            reg.register("tampi", lambda t=t: {
                "tampi_iwaits": t.stats_iwaits,
                "tampi_completed": t.stats_completed,
            })
        for t in self.tagaspi:
            reg.register("tagaspi", lambda t=t: {
                "tagaspi_ops": t.stats_ops,
                "tagaspi_notif_waits": t.stats_notif_waits,
                "tagaspi_notif_immediate": t.stats_notif_immediate,
            })
        for rt in self.runtimes:
            reg.register("tasking", lambda rt=rt: {
                "tasks_created": rt.stats.tasks_created,
                "tasks_completed": rt.stats.tasks_completed,
                "task_cpu_time": rt.stats.total_task_cpu_time,
                "onready_calls": rt.stats.onready_calls,
                "core_busy_time": rt.core_busy_time(),
            })

    def _collect_network(self) -> Dict[str, float]:
        st = self.cluster.stats
        return {
            "messages": st.messages,
            "control_messages": st.control_messages,
            "bytes": st.bytes,
            "intra_messages": st.intra_messages,
            "mean_transit": st.mean_transit(),
        }

    def _collect_mpi(self) -> Dict[str, float]:
        out = {
            "time_in_mpi": self.mpi.total_time_in_mpi(),
            "wait_in_mpi": self.mpi.total_wait_in_mpi(),
            "mpi_calls": sum(rk.lock.calls for rk in self.mpi.ranks),
            "mpi_isends": sum(rk.stats_isends for rk in self.mpi.ranks),
            "mpi_irecvs": sum(rk.stats_irecvs for rk in self.mpi.ranks),
            "eager_msgs": sum(rk.stats_eager for rk in self.mpi.ranks),
            "rendezvous_msgs": sum(rk.stats_rendezvous for rk in self.mpi.ranks),
        }
        return out

    def _collect_gaspi(self) -> Dict[str, float]:
        submitted = harvested = 0
        submit_time = queue_wait = 0.0
        notifications = 0
        for rk in self.gaspi.ranks:
            for q in rk.queues:
                submitted += q.submitted
                harvested += q.harvested
                st = q.device.stats
                submit_time += st.total_wait_time + st.total_hold_time
                queue_wait += st.total_wait_time
            for seg in rk.segments.values():
                notifications += seg.arrival_counter
        return {
            "gaspi_submitted": submitted,
            "gaspi_harvested": harvested,
            "gaspi_submit_time": submit_time,
            "gaspi_queue_wait": queue_wait,
            "notifications": notifications,
        }

    def collect_metrics(self) -> Dict[str, float]:
        """Sweep the registry and add the derived headline metrics every
        variant must report (zero-valued where a layer is absent):

        * ``comm_time`` — time inside communication libraries (MPI lock
          wait+hold plus GASPI queue submission wait+hold);
        * ``lock_wait_time`` — the contention component alone;
        * ``messages`` / ``notifications`` — transport counts.
        """
        m = self.registry.collect()
        m["comm_time"] = m.get("time_in_mpi", 0.0) + m.get("gaspi_submit_time", 0.0)
        m["lock_wait_time"] = m.get("wait_in_mpi", 0.0) + m.get("gaspi_queue_wait", 0.0)
        m.setdefault("messages", 0.0)
        m.setdefault("notifications", 0.0)
        # fault headline counters exist for every run so sweeps can compare
        # faulted and fault-free points uniformly
        m.setdefault("fault_injected", 0.0)
        m.setdefault("fault_retransmits", 0.0)
        m.setdefault("fault_timeouts", 0.0)
        self.metrics = m
        return m

    def perf_metrics(self) -> Dict[str, object]:
        """``perf_*`` keys of the finished run ({} unless ``spec.perf``)."""
        if not self.spec.perf:
            return {}
        from repro.perf import analyze_tracer

        return analyze_tracer(self.tracer, self.spec.variant,
                              self.spec.cores_per_rank).extra_metrics()

    # ------------------------------------------------------------------
    def app_rng(self, *path) -> np.random.Generator:
        """Deterministic RNG stream for application-level randomness."""
        return derive_rng(self.spec.seed or 0, "app", *path)

    def run(self, procs, max_events: Optional[int] = 50_000_000) -> float:
        """Run until every process in ``procs`` terminates; returns the sim
        time and sweeps the metrics registry into :attr:`metrics`. Raises
        on deadlock or process failure.

        ``max_events`` uses the same convention as :meth:`Engine.run`: a
        budget of N allows exactly N events to fire before raising.
        """
        eng = self.engine
        pending = list(procs)
        # One engine call for the whole job: the run stops exactly after
        # the event that completes the last main process (completion is
        # counted by callback inside the engine, never by scanning ranks).
        eng.run(max_events=max_events, until_done=pending)
        alive = [p.name for p in pending if not p.triggered]
        if alive:  # the queue drained first
            raise eng.diagnosed(f"job deadlocked; still alive: {alive}")
        for p in pending:
            if p.ok is False:
                raise p.value
        self.collect_metrics()
        if self.analysis is not None:
            # resource lint + strict-mode gate (AnalysisError on errors)
            self.analysis.finalize()
        return eng.now


def build_job(spec: JobSpec, tracer: Optional[Tracer] = None) -> Job:
    """Assemble the simulation for one experimental point, optionally with
    a :class:`repro.trace.Tracer` recording its timeline."""
    return Job(spec, tracer=tracer)
