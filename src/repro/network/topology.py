"""Cluster topology and message transport.

The cluster is a flat set of nodes on a full-bisection fabric (both machines
in the paper are fat trees with full bisection at the scales used). Each
node has one NIC modelled as two FIFO :class:`~repro.sim.serial.SerialDevice`
channels (egress, ingress). A remote message experiences::

    depart      = egress grant (serialization at src NIC)
    wire_arrive = depart end + latency (+ jitter), clamped FIFO per
                  (src_rank, dst_rank) channel
    deliver     = ingress grant at dst NIC, granted in wire-arrival order

Node-local messages bypass the NIC and use the shared-memory latency and
copy bandwidth.

The ingress NIC is *receiver-ordered*: the sender only computes the wire
arrival time and enqueues a timestamped record on the destination node's
``pending`` heap; a per-node wake event fires at the earliest pending
arrival and grants the ingress device in ``(wire_arrive, src_node,
send#)`` order. That order is a pure function of the record set, not of
the order in which the host program happens to execute the sends, so
arrivals from different senders that land on the same instant are
arbitrated by source node and send count rather than by engine
insertion order. It is part of the model: the pinned end-to-end results
(``benchmarks/e2e/golden.json``) depend on it, and so do the two other
determinism rules below — per-source-node jitter streams and per-node
transit-time partial sums. Changing any of them moves simulated time.

Delivery order is forced to be monotone per (src_rank, dst_rank) even under
jitter and loss — a strictly stronger guarantee than GASPI's per-(queue,
target) ordering, and what real fabrics provide per virtual channel. The
clamp is applied to ``wire_arrive`` on the sender side, so the
receiver-side grant scan sees per-channel non-decreasing arrivals.

A fault injector does not change the path, only its inputs: it scales
serialization and latency, decides each transmission's fate at its egress
grant end and delays a reordered message. Retransmissions and duplicate
copies are further transmissions on the same path. Under an injector each
message gets a per-channel sequence number: the receiving NIC holds a
message until every earlier one on its channel has been delivered or given
up as lost, and drops a copy of one already delivered. Only a reordered
message carries no number, so it alone leaves its channel's order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event
from repro.sim.serial import SerialDevice
from repro.network.fabric import Fabric
from repro.network.message import Message

DeliveryHandler = Callable[[Message], None]

_INF = float("inf")

#: A wire record: ``(wire_arrive, src_node, send#, ser, msg, local_done,
#: seq)``. ``send#`` is the source node's monotone out-counter, so the first
#: three fields are unique per record and heap comparisons never reach
#: ``msg``. ``seq`` is the channel sequence number, ``None`` unless a fault
#: injector is installed.
WireRecord = Tuple[float, int, int, float, Message, float, Optional[int]]


@dataclass
class NetworkStats:
    """Aggregate transport statistics (per cluster)."""

    messages: int = 0
    control_messages: int = 0
    bytes: int = 0
    intra_messages: int = 0
    total_transit_time: float = 0.0

    def mean_transit(self) -> float:
        return self.total_transit_time / self.messages if self.messages else 0.0


class Node:
    """A compute node: identity plus its NIC serialization state.

    ``pending`` holds :data:`WireRecord` tuples not yet granted the ingress
    device; ``wake_ev``/``wake_time`` track the single scheduled drain wake
    (at the heap head's arrival time). ``out_cnt`` is this node's monotone
    *send* counter (stamped into outgoing records as the tiebreaker), and
    ``transit_time`` is this node's share of the cluster transit-time sum,
    accumulated in this node's delivery order; :attr:`Cluster.stats` adds
    the partials in node order, which fixes the float total's rounding.
    """

    __slots__ = ("node_id", "egress", "ingress", "pending", "wake_ev",
                 "wake_time", "out_cnt", "transit_time")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.egress = SerialDevice()
        self.ingress = SerialDevice()
        self.pending: List[WireRecord] = []
        self.wake_ev: Optional[Event] = None
        self.wake_time: float = _INF
        self.out_cnt = 0
        self.transit_time = 0.0


class _Channel:
    """Packet sequencing of one (src_rank, dst_rank) channel under a fault
    injector. The sender numbers first transmissions with ``sent``; the
    receiving NIC expects number ``next`` and keeps later numbers in
    ``held`` as ``(msg, local_done, arrive)``, or ``None`` once given up as
    lost."""

    __slots__ = ("sent", "next", "held")

    def __init__(self) -> None:
        self.sent = 0
        self.next = 0
        self.held: Dict[int, Optional[Tuple[Message, float, float]]] = {}


class Cluster:
    """Nodes + rank placement + message transport.

    Parameters
    ----------
    engine:
        The simulation engine.
    n_nodes:
        Number of compute nodes.
    fabric:
        The interconnect model.
    rng:
        Seeded generator used for latency jitter; ``None`` disables jitter
        regardless of the fabric's jitter parameters.
    """

    def __init__(
        self,
        engine: Engine,
        n_nodes: int,
        fabric: Fabric,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.engine = engine
        self.fabric = fabric
        self.rng = rng
        # One jitter stream per *source node*, spawned deterministically
        # from the seed stream: a node's draws then depend only on its own
        # send order, never on how other nodes' sends interleave with it.
        self._jitter_rngs = None if rng is None else rng.spawn(n_nodes)
        self.nodes: List[Node] = [Node(i) for i in range(n_nodes)]
        self._stats = NetworkStats()
        self._rank_node: Dict[int, int] = {}
        self._endpoints: Dict[Tuple[int, str], DeliveryHandler] = {}
        # last scheduled delivery time per (src_rank, dst_rank): FIFO guard
        self._channel_clock: Dict[Tuple[int, int], float] = {}
        # last *wire arrival* per (src_rank, dst_rank): sender-side clamp
        # that keeps the channel FIFO under jitter before records are
        # enqueued (receiver-side drains then see monotone channels)
        self._wire_clock: Dict[Tuple[int, int], float] = {}
        #: installed by repro.faults.FaultInjector.install(); None = perfect
        #: fabric
        self.injector = None
        # packet sequencing per (src_rank, dst_rank), only under an injector
        self._channels = defaultdict(_Channel)
        # cluster-local edge ids for traced send->deliver causality, stored
        # on the message at a traced send
        self._next_edge_id = 0

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> NetworkStats:
        """Aggregate transport statistics.

        Counters live in ``_stats``; transit time is accumulated per
        *destination node* and summed here in node order. That summation
        order is part of the model: a single running total in global
        delivery order would round differently.
        """
        st = self._stats
        total = st.total_transit_time
        for nd in self.nodes:
            total += nd.transit_time
        return NetworkStats(
            messages=st.messages,
            control_messages=st.control_messages,
            bytes=st.bytes,
            intra_messages=st.intra_messages,
            total_transit_time=total,
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def place_rank(self, rank: int, node_id: int) -> None:
        if not 0 <= node_id < len(self.nodes):
            raise ValueError(f"node {node_id} out of range")
        if rank in self._rank_node:
            raise SimulationError(f"rank {rank} already placed")
        self._rank_node[rank] = node_id

    def place_ranks_block(self, n_ranks: int, ranks_per_node: int) -> None:
        """Place ranks 0..n_ranks-1 in contiguous blocks of
        ``ranks_per_node`` per node (the paper's layout on both machines)."""
        if n_ranks > len(self.nodes) * ranks_per_node:
            raise ValueError(
                f"{n_ranks} ranks do not fit on {len(self.nodes)} nodes "
                f"at {ranks_per_node}/node"
            )
        for r in range(n_ranks):
            self.place_rank(r, r // ranks_per_node)

    def node_of(self, rank: int) -> int:
        try:
            return self._rank_node[rank]
        except KeyError:
            raise SimulationError(f"rank {rank} was never placed") from None

    @property
    def n_ranks(self) -> int:
        return len(self._rank_node)

    def ranks_on_node(self, node_id: int) -> List[int]:
        return sorted(r for r, n in self._rank_node.items() if n == node_id)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def register_endpoint(self, rank: int, protocol: str, handler: DeliveryHandler) -> None:
        key = (rank, protocol)
        if key in self._endpoints:
            raise SimulationError(f"endpoint {key} registered twice")
        self._endpoints[key] = handler

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def send(self, msg: Message, depart_delay: float = 0.0) -> float:
        """Inject ``msg``; returns the *local completion* time, i.e. when the
        source buffer has fully left the source (NIC serialization done for
        remote messages, copy done for local ones).

        ``depart_delay`` postpones injection past "now" — used by substrates
        whose (virtual) lock wait delays the actual hardware doorbell.
        """
        eng = self.engine
        now = eng.now + depart_delay
        msg.injected_at = now
        tr0 = eng.tracer
        if tr0.enabled:
            eid = self._next_edge_id
            self._next_edge_id = eid + 1
            msg.eid = eid
            tr0.msg_send(msg, eid, now)
        src_node = self.node_of(msg.src_rank)
        dst_node = self.node_of(msg.dst_rank)
        intra = src_node == dst_node
        fab = self.fabric

        st = self._stats
        st.messages += 1
        st.bytes += msg.nbytes
        if msg.nbytes <= 64:
            st.control_messages += 1

        if intra:
            copy_time = fab.serialization(msg.nbytes, intra=True)
            local_done = now + copy_time
            arrive = local_done + fab.base_latency(intra=True)

            # FIFO per (src_rank, dst_rank): never deliver before an
            # earlier send.
            chan = (msg.src_rank, msg.dst_rank)
            floor = self._channel_clock.get(chan, 0.0)
            if arrive < floor:
                arrive = floor
            self._channel_clock[chan] = arrive

            st.intra_messages += 1
            self.nodes[dst_node].transit_time += arrive - now

            tr = eng.tracer
            if tr.enabled:
                tr.wire_span(msg, now, arrive, True, local_done)

            ev = eng.event()
            ev.callbacks.append(self._deliver_event)
            ev.succeed(msg, delay=arrive - eng.now)
            return local_done

        return self._transmit(msg, now, src_node, dst_node)

    def _transmit(self, msg: Message, at: float, src_node: int, dst_node: int,
                  attempt: int = 0, seq: Optional[int] = None,
                  copy: bool = False) -> float:
        """Put one transmission of ``msg`` on the wire at ``at``: the first
        send, a NIC retransmission (``attempt`` > 0) or a duplicate ``copy``
        of the message numbered ``seq`` on its channel. Enqueues the wire
        record on the destination's pending heap and returns the egress
        grant end, the sender's local completion.
        """
        fab = self.fabric
        inj = self.injector
        bw_factor = fab.cost(f"{msg.protocol}.bw_factor", 1.0)
        ser = fab.serialization(msg.nbytes, intra=False) / bw_factor
        if inj is not None:
            ser *= inj.serialization_factor(src_node, dst_node, at)
        src = self.nodes[src_node]
        local_done = src.egress.use(ser, at) + ser
        chan = (msg.src_rank, msg.dst_rank)
        in_order = True
        if inj is not None:
            fate = inj.fate(msg, src_node, dst_node, local_done, attempt, copy)
            # a reordered message leaves its channel's order: no number
            if seq is None and fate != "reorder":
                ch = self._channels[chan]
                seq = ch.sent
                ch.sent = seq + 1
            if fate == "drop":
                self._dropped(msg, local_done, src_node, dst_node, attempt,
                              seq, copy)
                return local_done
            in_order = fate != "reorder"
        latency = (
            fab.base_latency(intra=False)
            + fab.cost(f"{msg.protocol}.lat_extra", 0.0)
            + self._jitter(msg.protocol, src_node)
        )
        if inj is not None:
            latency *= inj.latency_factor(src_node, dst_node, local_done)
            if not in_order:
                latency += inj.reorder_extra()
        wire_arrive = local_done + latency
        if in_order:
            # The wire keeps per-(src_rank, dst_rank) FIFO order even under
            # jitter: a later injection never arrives first.
            wfloor = self._wire_clock.get(chan, 0.0)
            if wire_arrive < wfloor:
                wire_arrive = wfloor
            self._wire_clock[chan] = wire_arrive
        cnt = src.out_cnt
        src.out_cnt = cnt + 1
        node = self.nodes[dst_node]
        heappush(node.pending,
                 (wire_arrive, src_node, cnt, ser, msg, local_done, seq))
        if wire_arrive < node.wake_time:
            self._arm_wake(node, wire_arrive)
        if inj is not None and fate == "duplicate":
            # a ghost copy follows on the wire; the receiving NIC drops it
            self._transmit(msg, local_done, src_node, dst_node, attempt, seq,
                           copy=True)
        return local_done

    def _dropped(self, msg: Message, t: float, src_node: int, dst_node: int,
                 attempt: int, seq: int, copy: bool) -> None:
        """A transmission was lost on the wire at ``t``. The sending NIC
        notices the missing ack after an RTO and retransmits with
        exponential backoff; once it gives up, the message is lost and its
        channel moves on. A lost duplicate copy needs no recovery."""
        if copy:
            return
        inj = self.injector
        plan = inj.plan
        if plan.nic_ack and attempt < plan.max_retransmits:
            eng = self.engine
            ev = eng.event()
            ev.add_callback(lambda _ev: self._retransmit(
                msg, src_node, dst_node, attempt + 1, seq))
            ev.succeed(delay=t + inj.backoff_delay(attempt) - eng.now)
            return
        inj.stats.lost += 1
        inj.report.record(t, "net", "lost", rank=msg.src_rank,
                          dst=msg.dst_rank, msg_kind=msg.kind,
                          attempts=attempt + 1)
        node = self.nodes[dst_node]
        for held, local_done, arrive in self._in_order(msg, seq, None):
            if arrive > t:
                t = arrive
            node.transit_time += t - held.injected_at
            self.engine.schedule_at(self._delivery(held, t, local_done), t)

    def _retransmit(self, msg: Message, src_node: int, dst_node: int,
                    attempt: int, seq: int) -> None:
        inj = self.injector
        inj.stats.retransmits += 1
        now = self.engine.now
        inj.trace(msg, "retransmit", now, attempt)
        self._transmit(msg, now, src_node, dst_node, attempt, seq)

    # ------------------------------------------------------------------
    # receiver-ordered ingress
    # ------------------------------------------------------------------
    def _arm_wake(self, node: Node, w: float) -> None:
        """(Re)schedule ``node``'s drain wake at arrival time ``w``."""
        old = node.wake_ev
        if old is not None:
            old.cancel()
        eng = self.engine
        ev = Event.__new__(Event)
        ev.engine = eng
        ev.callbacks = [self._drain_event]
        ev._triggered = False
        ev._ok = True
        ev._value = node
        ev._scheduled = True
        ev._defused = False
        ev._cancelled = False
        eng.schedule_at(ev, w)
        node.wake_ev = ev
        node.wake_time = w

    def _drain_event(self, ev: Event) -> None:
        self._drain(ev._value)

    def _drain(self, node: Node) -> None:
        """Grant the ingress NIC to every record that has reached the wire.

        Runs at the pending heap head's exact arrival time and pops
        strictly ``wire_arrive <= now``: a send that executes later may
        still enqueue a record arriving before one already pending, so
        draining ahead of the clock would grant out of order. Popping in
        heap order makes the ingress grant sequence ``(wire_arrive,
        src_node, send#)``-sorted, a pure function of the record set
        rather than of the order the sends executed in.
        """
        eng = self.engine
        now = eng.now
        node.wake_ev = None
        node.wake_time = _INF
        pending = node.pending
        ingress = node.ingress
        tr = eng.tracer
        transit = node.transit_time
        times: List[float] = []
        events: List[Event] = []
        new = Event.__new__
        while pending and pending[0][0] <= now:
            w, _src, _cnt, ser, msg, local_done, seq = heappop(pending)
            arrive = ingress.use(ser, w) + ser
            if seq is not None:
                for m, ld, _ in self._in_order(msg, seq,
                                               (msg, local_done, arrive)):
                    transit += arrive - m.injected_at
                    times.append(arrive)
                    events.append(self._delivery(m, arrive, ld))
                continue
            transit += arrive - msg.injected_at
            if tr.enabled:
                tr.wire_span(msg, msg.injected_at, arrive, False,
                             local_done)
            ev = new(Event)
            ev.engine = eng
            ev.callbacks = [self._deliver_event]
            ev._triggered = False
            ev._ok = True
            ev._value = msg
            ev._scheduled = True
            ev._defused = False
            ev._cancelled = False
            times.append(arrive)
            events.append(ev)
        node.transit_time = transit
        if len(times) == 1:
            eng.schedule_at(events[0], times[0])
        else:
            # Ingress grant ends are non-decreasing in drain order, so the
            # block is already sorted as schedule_batch requires.
            eng.schedule_batch(times, events)
        if pending:
            self._arm_wake(node, pending[0][0])

    def _in_order(self, msg: Message, seq: int,
                  rec: Optional[Tuple[Message, float, float]]
                  ) -> List[Tuple[Message, float, float]]:
        """The receiving NIC's sequence check: number ``seq`` on ``msg``'s
        channel was granted ingress as ``rec`` = ``(msg, local_done,
        arrive)``, or was given up as lost (``rec`` is ``None``). Returns
        the records now in channel order, to be delivered.

        A message is held until every earlier number has been delivered or
        given up. A number already delivered or held marks a duplicate
        copy, which is dropped.
        """
        ch = self._channels[(msg.src_rank, msg.dst_rank)]
        if seq < ch.next or seq in ch.held:
            inj = self.injector
            inj.stats.dup_suppressed += 1
            inj.trace(msg, "dup_suppressed", self.engine.now, 0)
            return []
        ch.held[seq] = rec
        released = []
        n = ch.next
        while n in ch.held:
            r = ch.held.pop(n)
            if r is not None:
                released.append(r)
            n += 1
        ch.next = n
        return released

    def _delivery(self, msg: Message, t: float, local_done: float) -> Event:
        """Trace the delivery of ``msg`` at ``t``; returns its unscheduled
        delivery event."""
        tr = self.engine.tracer
        if tr.enabled:
            tr.wire_span(msg, msg.injected_at, t, False, local_done)
        ev = Event(self.engine)
        ev.callbacks.append(self._deliver_event)
        ev._ok = True
        ev._value = msg
        ev._scheduled = True
        return ev

    def send_batch(self, msgs: List[Message],
                   delays: List[float]) -> List[float]:
        """``[self.send(m, d) for m, d in zip(msgs, delays)]``: one
        :meth:`send` per message, message *j* departing ``delays[j]``
        after now. Returns the local-completion times."""
        return [self.send(m, d) for m, d in zip(msgs, delays)]

    def _deliver_event(self, ev) -> None:
        """Delivery callback of every send: the message rides in the
        event's value slot instead of a per-message closure."""
        self._deliver(ev._value)

    def _deliver(self, msg: Message) -> None:
        msg.delivered_at = self.engine.now
        tr = self.engine.tracer
        if tr.enabled:
            eid = msg.eid
            if eid is not None:
                tr.msg_deliver(msg, eid, self.engine.now)
        handler = self._endpoints.get((msg.dst_rank, msg.protocol))
        if handler is None:
            raise SimulationError(
                f"no {msg.protocol!r} endpoint at rank {msg.dst_rank} for {msg!r}"
            )
        handler(msg)

    def _jitter(self, protocol: str, src_node: int) -> float:
        rngs = self._jitter_rngs
        if rngs is None:
            return 0.0
        rel = self.fabric.cost(f"{protocol}.jitter", 0.0)
        if rel <= 0.0:
            return 0.0
        # Lognormal noise scaled to the base latency; mean ≈ 0 shift so the
        # configured latency stays the central value. Drawn from the source
        # node's own spawned stream: the draw sequence then depends only on
        # that node's send order, so traffic elsewhere never shifts it.
        base = self.fabric.latency
        sigma = rel
        sample = rngs[src_node].lognormal(mean=0.0, sigma=sigma)
        return base * (sample - 1.0) if sample > 1.0 else 0.0
