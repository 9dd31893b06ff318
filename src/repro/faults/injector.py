"""The runtime side of fault injection.

A :class:`FaultInjector` binds a frozen :class:`~repro.faults.plan.FaultPlan`
to one simulation: it owns the plan's seeded RNG stream (derived via
``repro.sim.rng.derive_rng(seed, "faults")`` by the harness), decides the
fate of every wire message, answers the time-windowed queries (degradation
factors, partitions, stalls), and accumulates :class:`FaultStats`.

Installation is a single attribute hook: ``install(cluster)`` sets
``cluster.injector`` and schedules the plan's node stalls on the engine.
Every wire transmission takes the cluster's one transport path; an
installed injector only changes its inputs (serialization and latency
factors, the fate decided at the egress grant end, a reordered message's
extra delay). With no injector installed (empty plan) that path draws no
fault RNG, and a plan whose faults never fire leaves every time unchanged.

All randomness is drawn in deterministic event order from the injector's
own stream, never from the cluster's jitter stream, so enabling faults
perturbs neither the jitter sequence nor any application RNG: a faulted run
is a pure function of ``(plan, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.report import FaultReport


@dataclass
class FaultStats:
    """Aggregate fault/recovery counters (one instance per injector).

    Swept into ``VariantResult.extra`` by the harness's ``MetricsRegistry``
    under ``fault_*`` keys.
    """

    # wire-level injections
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    partition_dropped: int = 0
    scripted: int = 0
    stalls: int = 0
    # wire-level recovery
    retransmits: int = 0
    lost: int = 0
    dup_suppressed: int = 0
    # substrate-level timeouts / recovery
    gaspi_timeouts: int = 0
    tampi_timeouts: int = 0
    purged: int = 0
    resubmits: int = 0
    released: int = 0
    rendezvous_retries: int = 0
    stale_reads: int = 0

    @property
    def injected(self) -> int:
        return (self.dropped + self.duplicated + self.reordered
                + self.partition_dropped + self.stalls)

    @property
    def timeouts(self) -> int:
        return self.gaspi_timeouts + self.tampi_timeouts

    def as_dict(self) -> dict:
        return {
            "fault_injected": float(self.injected),
            "fault_dropped": float(self.dropped),
            "fault_duplicated": float(self.duplicated),
            "fault_reordered": float(self.reordered),
            "fault_partition_dropped": float(self.partition_dropped),
            "fault_scripted": float(self.scripted),
            "fault_stalls": float(self.stalls),
            "fault_retransmits": float(self.retransmits),
            "fault_lost": float(self.lost),
            "fault_dup_suppressed": float(self.dup_suppressed),
            "fault_timeouts": float(self.timeouts),
            "fault_gaspi_timeouts": float(self.gaspi_timeouts),
            "fault_tampi_timeouts": float(self.tampi_timeouts),
            "fault_purged": float(self.purged),
            "fault_resubmits": float(self.resubmits),
            "fault_released": float(self.released),
            "fault_rendezvous_retries": float(self.rendezvous_retries),
            "fault_stale_reads": float(self.stale_reads),
        }


class FaultInjector:
    """Executes a :class:`FaultPlan` against one simulated cluster.

    Parameters
    ----------
    plan:
        The frozen fault scenario.
    engine:
        The simulation engine (stalls are scheduled on it at install time).
    rng:
        Seeded generator for the probabilistic faults; ``None`` disables
        them (scripted and windowed faults still apply).
    report:
        Optional shared :class:`FaultReport`; one is created if omitted.
    """

    def __init__(self, plan: FaultPlan, engine, rng: Optional[np.random.Generator] = None,
                 report: Optional[FaultReport] = None):
        self.plan = plan
        self.engine = engine
        self.rng = rng
        self.report = report if report is not None else FaultReport()
        self.stats = FaultStats()
        self.cluster = None
        # per-scripted-fault match counters (index-aligned with plan.scripted)
        self._script_seen: List[int] = [0] * len(plan.scripted)
        self._script_done: List[bool] = [False] * len(plan.scripted)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, cluster) -> "FaultInjector":
        """Hook this injector into ``cluster`` and schedule node stalls."""
        if cluster.injector is not None:
            raise RuntimeError("cluster already has a fault injector installed")
        cluster.injector = self
        self.cluster = cluster
        for stall in self.plan.stalls:
            if stall.node >= cluster.n_nodes:
                continue  # plan written for a larger cluster; ignore
            ev = self.engine.event()
            ev.add_callback(lambda _ev, s=stall: self._begin_stall(cluster, s))
            ev.succeed(delay=max(stall.t0 - self.engine.now, 0.0))
        return self

    def _begin_stall(self, cluster, stall) -> None:
        # Occupy both NIC channels from the window start: in-flight traffic
        # already granted is unaffected, later traffic queues behind the
        # stall. Scheduling at t0 (not at install time) keeps pre-window
        # sends byte-identical to an unstalled run.
        node = cluster.nodes[stall.node]
        now = self.engine.now
        node.egress.use(stall.duration, now)
        node.ingress.use(stall.duration, now)
        self.stats.stalls += 1
        self.report.record(self.engine.now, "net", "stall", rank=None,
                           node=stall.node, duration=stall.duration)
        tr = self.engine.tracer
        if tr.enabled:
            tr.span("faults", "node_stall", self.engine.now,
                    self.engine.now + stall.duration, rank=f"node{stall.node}",
                    node=stall.node)

    # ------------------------------------------------------------------
    # wire-message fate
    # ------------------------------------------------------------------
    def fate(self, msg, src_node: int, dst_node: int, t: float, attempt: int,
             is_copy: bool) -> str:
        """The fate of one wire transmission whose egress grant ends at
        ``t``: a partition drops it, else :meth:`wire_fate` decides. Every
        fate but ``"ok"`` is traced."""
        if self.partitioned(src_node, dst_node, t):
            self.stats.partition_dropped += 1
            self.trace(msg, "partition_drop", t, attempt)
            return "drop"
        fate = self.wire_fate(msg, attempt, is_copy)
        if fate != "ok":
            self.trace(msg, fate, t, attempt)
        return fate

    def trace(self, msg, what: str, t: float, attempt: int) -> None:
        """Record the wire event ``what`` of ``msg`` as a ``faults`` instant."""
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("faults", what, t, rank=msg.src_rank, dst=msg.dst_rank,
                       kind=msg.kind, attempt=attempt)

    def wire_fate(self, msg, attempt: int, is_copy: bool) -> str:
        """Decide what happens to one wire transmission: ``"ok"``,
        ``"drop"``, ``"duplicate"``, or ``"reorder"``.

        Scripted faults fire only on first transmissions (``attempt == 0``
        and not a duplicate copy); probabilistic drops apply to every
        transmission, so retransmits can be lost again.
        """
        plan = self.plan
        if plan.scripted and attempt == 0 and not is_copy:
            action = self._scripted_action(msg)
            if action is not None:
                return action
        rng = self.rng
        if rng is None:
            return "ok"
        if plan.drop_prob > 0.0 and rng.random() < plan.drop_prob:
            self.stats.dropped += 1
            return "drop"
        if attempt == 0 and not is_copy:
            if plan.dup_prob > 0.0 and rng.random() < plan.dup_prob:
                self.stats.duplicated += 1
                return "duplicate"
            if plan.reorder_prob > 0.0 and rng.random() < plan.reorder_prob:
                self.stats.reordered += 1
                return "reorder"
        return "ok"

    def _scripted_action(self, msg) -> Optional[str]:
        for i, f in enumerate(self.plan.scripted):
            if self._script_done[i] or not f.matches(msg):
                continue
            self._script_seen[i] += 1
            if f.nth != 0 and self._script_seen[i] != f.nth:
                continue
            if f.nth != 0:
                self._script_done[i] = True
            self.stats.scripted += 1
            if f.action == "drop":
                self.stats.dropped += 1
            elif f.action == "duplicate":
                self.stats.duplicated += 1
            else:
                self.stats.reordered += 1
            self.report.record(self.engine.now, "net", "scripted",
                               rank=msg.src_rank, action=f.action,
                               dst=msg.dst_rank, msg_kind=msg.kind)
            return f.action
        return None

    # ------------------------------------------------------------------
    # windowed queries (degradation / partition / stall state)
    # ------------------------------------------------------------------
    def latency_factor(self, src_node: int, dst_node: int, t: float) -> float:
        f = 1.0
        for d in self.plan.degradations:
            if d.applies(src_node, dst_node, t):
                f *= d.latency_factor
        return f

    def serialization_factor(self, src_node: int, dst_node: int, t: float) -> float:
        """Multiplier on wire serialization time (1/bandwidth)."""
        f = 1.0
        for d in self.plan.degradations:
            if d.applies(src_node, dst_node, t):
                f /= d.bandwidth_factor
        return f

    def partitioned(self, src_node: int, dst_node: int, t: float) -> bool:
        return any(p.severs(src_node, dst_node, t) for p in self.plan.partitions)

    def node_stalled(self, node: int, t: float) -> bool:
        return any(s.node == node and s.covers(t) for s in self.plan.stalls)

    # ------------------------------------------------------------------
    # retransmission timing
    # ------------------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """RTO before retransmission ``attempt + 1`` (exponential, capped)."""
        plan = self.plan
        return min(plan.retransmit_rto * plan.retransmit_backoff ** attempt,
                   plan.retransmit_cap)

    def reorder_extra(self) -> float:
        """Extra latency of a reordered message: at least one mean delay,
        with an exponential tail when an RNG is available."""
        mean = self.plan.reorder_delay
        if self.rng is None:
            return mean
        return mean * (1.0 + self.rng.exponential(1.0))
