"""Array-native NIC wire path (structure-of-arrays message batches).

:func:`send_batch` injects a whole batch of messages that share one
(src_rank, dst_rank, protocol) channel in a handful of vectorized passes
instead of one :meth:`Cluster.send` call per message.

Bit-exactness contract
----------------------

``send_batch(cluster, msgs)`` is observably identical to
``[cluster.send(m) for m in msgs]`` — same local-completion times, same
wire records (hence same drain-side ingress grants and delivery times),
same :class:`NetworkStats` and :class:`LockStats` values to the last bit,
and the same RNG stream when jitter is enabled. That requires care with
floating point, because ``a + (b + c) != (a + b) + c``:

* **Egress FIFO is an exact running sum.** When all messages are injected
  at the same ``now`` the device is saturated after the first grant and
  each grant starts where the previous one ended; ``np.cumsum`` over
  ``[max(now, busy), ser_0, ser_1, ...]`` performs the *same* sequential
  left-to-right additions as the scalar loop, so the grant ends match bit
  for bit. With per-message departure delays (``depart_delay`` as an
  array) the injection times are not uniform and a short Python scan
  mirrors :meth:`SerialDevice.use` exactly instead.
* **The wire-clock clamp is a max-scan.** The scalar recurrence
  ``w = max(raw, floor); floor = w`` never rounds, so
  ``np.maximum.accumulate`` reproduces it bit for bit.
* **Float accumulators are updated sequentially.** Wait/hold/transit
  statistics add per-message terms in message order, exactly as the
  scalar path does; only integer counters use vectorized sums.
* **Ingress is receiver-side.** The sender (scalar or batch) only
  enqueues ``(wire_arrive, src_node, send#, ...)`` records; the
  destination node's drain grants the ingress NIC in wire-arrival order
  (see :mod:`repro.network.topology`), so the batch producer has nothing
  to reproduce there — the records themselves are bit-identical.

When a batch does not qualify for this path (mixed channels, an observer
on ``engine.tracer``, an active fault injector, node-local and remote
messages mixed),
:meth:`Cluster.send_batch` falls back to the exact per-message loop.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Sequence, Union

import numpy as np

from repro.network.message import Message


def batch_eligible(cluster, msgs: Sequence[Message]) -> bool:
    """True if ``msgs`` can take the vectorized wire path.

    Requirements: a non-empty batch on a single (src_rank, dst_rank,
    protocol) channel, no observer on ``engine.tracer`` (trace, perf or
    checkers) and no active fault plan — each of those observes individual
    sends, so such batches fall back to the exact per-message loop.
    """
    if not msgs:
        return False
    eng = cluster.engine
    if eng.tracer.enabled:
        return False
    if cluster.injector is not None and cluster.injector.active:
        return False
    m0 = msgs[0]
    src, dst, proto = m0.src_rank, m0.dst_rank, m0.protocol
    return all(
        m.src_rank == src and m.dst_rank == dst and m.protocol == proto
        for m in msgs
    )


def send_batch(cluster, msgs: Sequence[Message],
               depart_delay: Union[float, np.ndarray] = 0.0) -> np.ndarray:
    """Vectorized single-channel batch send; see the module docstring.

    ``depart_delay`` is either one scalar applied to every message or a
    float64 array of per-message delays (non-decreasing, as produced by
    back-to-back lock grants) — the latter is what
    :meth:`MPIRank.isend_batch` uses to batch a whole stack of eager
    sends whose doorbells ring one lock grant apart.

    Returns the per-message local-completion times (the scalar
    :meth:`Cluster.send` return values) as a float64 array. Callers must
    have checked :func:`batch_eligible` first.
    """
    eng = cluster.engine
    fab = cluster.fabric
    eng_now = eng.now
    n = len(msgs)
    m0 = msgs[0]
    src_node = cluster.node_of(m0.src_rank)
    dst_node = cluster.node_of(m0.dst_rank)
    intra = src_node == dst_node

    scalar_delay = not isinstance(depart_delay, np.ndarray)
    if scalar_delay:
        now0 = eng_now + depart_delay
        inject = None
    else:
        inject = eng_now + depart_delay
        now0 = float(inject[0]) if n else eng_now

    nbytes = np.empty(n, dtype=np.float64)
    for i, m in enumerate(msgs):
        m.injected_at = now0 if scalar_delay else float(inject[i])
        nbytes[i] = m.nbytes

    st = cluster._stats
    st.messages += n
    st.bytes += sum(m.nbytes for m in msgs)
    st.control_messages += int(np.count_nonzero(nbytes <= 64))

    if intra:
        copy = fab.serialization_batch(nbytes, intra=True)
        local_done = (now0 if scalar_delay else inject) + copy
        arrive = local_done + fab.base_latency(intra=True)

        # per-channel FIFO floor: an exact max-scan of the scalar clock
        # recurrence ``floor = max(arrive, floor)`` (max never rounds)
        chan = (m0.src_rank, m0.dst_rank)
        floor0 = cluster._channel_clock.get(chan, 0.0)
        np.maximum.accumulate(arrive, out=arrive)
        np.maximum(arrive, floor0, out=arrive)
        cluster._channel_clock[chan] = float(arrive[-1])

        st.intra_messages += n
        node = cluster.nodes[dst_node]
        transit = node.transit_time
        if scalar_delay:
            for a in arrive.tolist():
                transit += a - now0
        else:
            for a, t0 in zip(arrive.tolist(), inject.tolist()):
                transit += a - t0
        node.transit_time = transit

        # The scalar path fires each delivery via succeed(delay=arrive -
        # now), which the engine re-anchors as now + (arrive - now);
        # reproduce that exact float round-trip.
        from repro.sim.events import Event

        anchor = eng._now
        times = anchor + (arrive - anchor)
        cb = cluster._deliver_event
        new = Event.__new__
        events = []
        eappend = events.append
        for m in msgs:
            ev = new(Event)
            ev.engine = eng
            ev.callbacks = [cb]
            ev._triggered = False
            ev._ok = True
            ev._value = m
            ev._scheduled = True
            ev._defused = False
            ev._cancelled = False
            eappend(ev)
        eng.schedule_batch(times, events)
        return np.asarray(local_done, dtype=np.float64)

    # --- inter-node --------------------------------------------------------
    bw_factor = fab.cost(f"{m0.protocol}.bw_factor", 1.0)
    ser = fab.serialization_batch(nbytes, intra=False) / bw_factor
    egress = cluster.nodes[src_node].egress
    est = egress.stats
    if scalar_delay:
        # saturated FIFO == exact running sum
        base = now0 if now0 >= egress.busy_until else egress.busy_until
        ends = np.cumsum(np.concatenate(([base], ser)))
        starts = ends[:-1]
        ends = ends[1:]
        egress.busy_until = float(ends[-1])
        est.acquisitions += n
        wait_sum = est.total_wait_time
        hold_sum = est.total_hold_time
        contended = 0
        for s_t, s in zip(starts.tolist(), ser.tolist()):
            w = s_t - now0
            if w > 0.0:
                contended += 1
                wait_sum += w
            hold_sum += s
        est.contended_acquisitions += contended
        est.total_wait_time = wait_sum
        est.total_hold_time = hold_sum
    else:
        # non-uniform injection times: mirror SerialDevice.use exactly
        busy = egress.busy_until
        wait_sum = est.total_wait_time
        hold_sum = est.total_hold_time
        contended = 0
        ends_l: List[float] = []
        eappend_t = ends_l.append
        for t0, s in zip(inject.tolist(), ser.tolist()):
            start = t0 if t0 >= busy else busy
            w = start - t0
            if w > 0.0:
                contended += 1
                wait_sum += w
            hold_sum += s
            busy = start + s
            eappend_t(busy)
        egress.busy_until = busy
        est.acquisitions += n
        est.contended_acquisitions += contended
        est.total_wait_time = wait_sum
        est.total_hold_time = hold_sum
        ends = np.asarray(ends_l, dtype=np.float64)
    local_done = ends

    # --- wire latency (scalar jitter scan keeps the RNG order) ------------
    lat0 = (fab.base_latency(intra=False)
            + fab.cost(f"{m0.protocol}.lat_extra", 0.0))
    if cluster._jitter_rngs is None:
        wire_arrive = ends + lat0
    else:
        jit = [cluster._jitter(m0.protocol, src_node) for _ in range(n)]
        wire_arrive = ends + (lat0 + np.asarray(jit, dtype=np.float64))

    # --- sender-side wire clamp: exact max-scan of the channel clock ------
    chan = (m0.src_rank, m0.dst_rank)
    wfloor = cluster._wire_clock.get(chan, 0.0)
    np.maximum.accumulate(wire_arrive, out=wire_arrive)
    np.maximum(wire_arrive, wfloor, out=wire_arrive)
    cluster._wire_clock[chan] = float(wire_arrive[-1])

    # --- enqueue wire records (the drain side is receiver-ordered) --------
    src = cluster.nodes[src_node]
    cnt = src.out_cnt
    src.out_cnt = cnt + n
    w_list = wire_arrive.tolist()
    ser_list = ser.tolist()
    done_list = ends.tolist()
    node = cluster.nodes[dst_node]
    pending = node.pending
    for i, m in enumerate(msgs):
        heappush(pending, (w_list[i], src_node, cnt + i, ser_list[i],
                           m, done_list[i]))
    if n and w_list[0] < node.wake_time:
        cluster._arm_wake(node, w_list[0])
    return local_done
