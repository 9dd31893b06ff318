"""Declarative fault plans.

A :class:`FaultPlan` is a frozen, fully declarative description of *what*
goes wrong during a run: probabilistic wire faults (drop / duplicate /
reorder), scripted one-shot faults aimed at specific messages, time-windowed
link degradations and partitions, node stalls, and the retransmission /
recovery parameters the comm layers use to survive them.

Plans carry no state and are never mutated by a run, so the same
``(plan, seed)`` pair always reproduces the same faulted execution — the
determinism contract asserted by ``tests/test_determinism.py``. The seeded
randomness itself lives in :class:`repro.faults.injector.FaultInjector`,
which derives its stream from ``repro.sim.rng``.

The timeout/recovery knobs mirror the GASPI standard's timeout-based
failure model (every wait primitive takes a timeout; failures surface
through error codes and the ``gaspi_state_vec_get`` health vector), which
the paper's substrate builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Tuple


class FaultPlanError(ValueError):
    """An inconsistent fault-plan description."""


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise FaultPlanError(f"{name} must be in [0, 1], got {p}")


def _freeze_nodes(nodes: Optional[Iterable[int]]) -> Optional[FrozenSet[int]]:
    return None if nodes is None else frozenset(nodes)


@dataclass(frozen=True)
class LinkDegradation:
    """Multiply link latency and/or divide bandwidth over ``[t0, t1)``.

    ``nodes`` restricts the degradation to wire legs touching any of the
    listed nodes; ``None`` degrades the whole fabric.
    """

    t0: float
    t1: float
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    nodes: Optional[FrozenSet[int]] = None

    def __post_init__(self) -> None:
        if self.t1 <= self.t0:
            raise FaultPlanError(f"degradation window [{self.t0}, {self.t1}) is empty")
        if self.latency_factor < 1.0:
            raise FaultPlanError("latency_factor must be >= 1")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise FaultPlanError("bandwidth_factor must be in (0, 1]")
        object.__setattr__(self, "nodes", _freeze_nodes(self.nodes))

    def applies(self, src_node: int, dst_node: int, t: float) -> bool:
        if not self.t0 <= t < self.t1:
            return False
        return self.nodes is None or src_node in self.nodes or dst_node in self.nodes


@dataclass(frozen=True)
class Partition:
    """Transient network partition over ``[t0, t1)``: wire messages that
    cross the cut between ``nodes`` and the rest of the cluster are lost
    (and, with NIC acks enabled, retransmitted until the partition heals)."""

    t0: float
    t1: float
    nodes: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.t1 <= self.t0:
            raise FaultPlanError(f"partition window [{self.t0}, {self.t1}) is empty")
        if not self.nodes:
            raise FaultPlanError("a partition needs at least one isolated node")
        object.__setattr__(self, "nodes", frozenset(self.nodes))

    def severs(self, src_node: int, dst_node: int, t: float) -> bool:
        if not self.t0 <= t < self.t1:
            return False
        return (src_node in self.nodes) != (dst_node in self.nodes)


@dataclass(frozen=True)
class NodeStall:
    """Straggler: node ``node``'s NIC (both directions) is occupied for
    ``duration`` seconds starting at ``t0`` — traffic through it queues
    behind the stall but is never lost."""

    node: int
    t0: float
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise FaultPlanError("stall duration must be positive")
        if self.t0 < 0.0:
            raise FaultPlanError("stall t0 must be >= 0")

    def covers(self, t: float) -> bool:
        return self.t0 <= t < self.t0 + self.duration


@dataclass(frozen=True)
class ScriptedFault:
    """Deterministically fault the ``nth`` matching wire message.

    ``action`` is ``"drop"``, ``"duplicate"``, or ``"reorder"``; matching is
    by (src_rank, dst_rank) and optionally ``protocol`` (``"mpi"``/
    ``"gaspi"``) and message ``kind`` (``"eager"``, ``"rts"``,
    ``"read_resp"``, …). ``nth`` counts matching first-attempt messages
    from 1; ``nth=0`` faults *every* matching message (pair with
    ``nic_ack=False`` to model a permanently dead path).
    """

    action: str
    src_rank: int
    dst_rank: int
    nth: int = 1
    protocol: Optional[str] = None
    kind: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in ("drop", "duplicate", "reorder"):
            raise FaultPlanError(f"unknown scripted action {self.action!r}")
        if self.nth < 0:
            raise FaultPlanError("nth must be >= 1, or 0 for every occurrence")

    def matches(self, msg) -> bool:
        return (
            msg.src_rank == self.src_rank
            and msg.dst_rank == self.dst_rank
            and (self.protocol is None or msg.protocol == self.protocol)
            and (self.kind is None or msg.kind == self.kind)
        )


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the task-aware libraries do about operations that exceed
    ``op_timeout`` seconds without completing.

    TAGASPI purges the operation's low-level requests and re-submits to the
    next queue, up to ``max_retries`` times with the deadline stretched by
    ``backoff`` per retry; TAMPI (two-sided, nothing to re-submit) releases
    the bound task events immediately. ``on_exhaustion`` is ``"release"``
    (fulfill the events so the task graph drains — degraded but live) or
    ``"abort"`` (raise :class:`repro.faults.report.FaultAbort` carrying the
    structured :class:`~repro.faults.report.FaultReport`).
    """

    op_timeout: float
    max_retries: int = 3
    backoff: float = 2.0
    on_exhaustion: str = "release"

    def __post_init__(self) -> None:
        if self.op_timeout <= 0.0:
            raise FaultPlanError("op_timeout must be positive")
        if self.max_retries < 0:
            raise FaultPlanError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise FaultPlanError("backoff must be >= 1")
        if self.on_exhaustion not in ("release", "abort"):
            raise FaultPlanError(
                f"on_exhaustion must be 'release' or 'abort', got {self.on_exhaustion!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault scenario.

    An all-defaults plan is *empty*: no injector is installed and the run
    is bit-identical to a plain one. Probabilities apply independently per
    wire (inter-node) message; node-local messages are never faulted (they
    are memory copies, not wire traffic).
    """

    # -- probabilistic wire faults ------------------------------------
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    #: mean extra latency a reordered message incurs (it also leaves its
    #: channel's order, so later messages may overtake it)
    reorder_delay: float = 20e-6

    # -- scheduled / scripted faults ----------------------------------
    degradations: Tuple[LinkDegradation, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    stalls: Tuple[NodeStall, ...] = ()
    scripted: Tuple[ScriptedFault, ...] = ()

    # -- NIC ack + retransmission (repro.network) ---------------------
    #: reliable-delivery mode: dropped wire messages are retransmitted with
    #: exponential backoff; False models a lossy fabric where recovery is
    #: entirely up to the upper layers
    nic_ack: bool = True
    retransmit_rto: float = 20e-6
    retransmit_backoff: float = 2.0
    retransmit_cap: float = 2e-3
    max_retransmits: int = 30

    # -- MPI rendezvous retry (repro.mpi) -----------------------------
    rendezvous_retry: bool = True
    rendezvous_rto: float = 200e-6
    max_rendezvous_retries: int = 8

    # -- task-aware library recovery (repro.core.tagaspi / repro.tampi)
    recovery: Optional[RecoveryPolicy] = None

    def __post_init__(self) -> None:
        _check_prob("drop_prob", self.drop_prob)
        _check_prob("dup_prob", self.dup_prob)
        _check_prob("reorder_prob", self.reorder_prob)
        if self.reorder_delay <= 0.0:
            raise FaultPlanError("reorder_delay must be positive")
        if self.retransmit_rto <= 0.0 or self.retransmit_cap <= 0.0:
            raise FaultPlanError("retransmit timeouts must be positive")
        if self.retransmit_backoff < 1.0:
            raise FaultPlanError("retransmit_backoff must be >= 1")
        if self.max_retransmits < 0:
            raise FaultPlanError("max_retransmits must be >= 0")
        if self.rendezvous_rto <= 0.0:
            raise FaultPlanError("rendezvous_rto must be positive")
        if self.max_rendezvous_retries < 0:
            raise FaultPlanError("max_rendezvous_retries must be >= 0")
        for name in ("degradations", "partitions", "stalls", "scripted"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def empty(self) -> bool:
        """True if the plan injects no faults at all (the bit-identical
        case). A plan whose only content is a :class:`RecoveryPolicy` is
        also fault-free on the wire: no injector is installed for it."""
        return (
            self.drop_prob == 0.0
            and self.dup_prob == 0.0
            and self.reorder_prob == 0.0
            and not self.degradations
            and not self.partitions
            and not self.stalls
            and not self.scripted
        )

    # ------------------------------------------------------------------
    # canonical intensity presets (the none/mild/severe sweep axis)
    # ------------------------------------------------------------------
    @classmethod
    def mild(cls, **overrides) -> "FaultPlan":
        """Occasional drops/dups/reorders; NIC retransmission recovers
        everything well below typical poll periods."""
        base = dict(drop_prob=0.005, dup_prob=0.002, reorder_prob=0.005,
                    retransmit_rto=10e-6)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def severe(cls, **overrides) -> "FaultPlan":
        """Heavy loss and reordering — the regime where retransmission
        traffic and recovery policies dominate the timeline."""
        base = dict(drop_prob=0.03, dup_prob=0.01, reorder_prob=0.02,
                    retransmit_rto=10e-6)
        base.update(overrides)
        return cls(**base)
