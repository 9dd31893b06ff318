"""Scalasca-style wait-state classification per rank.

Four wait-state classes, measured in seconds per rank:

* ``late_sender`` — a receive was posted (or a blocking wait entered)
  before the matching message was even injected at the sender; the
  classic MPI inefficiency pattern (Scalasca's Late Sender).
* ``late_notification`` — the one-sided analogue: ``notify_iwait``
  registered before the notification landed in the segment, so the task
  graph stalled on the producer (paper §IV-B acks / halo notifications).
* ``lock_wait`` — time serialized on the MPI global lock or a GASPI queue
  device (the §VI-C contention the paper measures with VTune).
* ``poll_detection`` — completion happened but the polling task detected
  it late (the poll-period quantization of §V-B).

The per-rank *dominant* state is the class with the largest total; ranks
with no measurable wait report ``none``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.perf.model import PerfModel

WAIT_STATES = ("late_sender", "late_notification", "lock_wait",
               "poll_detection")


@dataclass
class RankWaits:
    rank: object
    late_sender: float = 0.0
    late_notification: float = 0.0
    lock_wait: float = 0.0
    poll_detection: float = 0.0

    def total(self) -> float:
        return (self.late_sender + self.late_notification + self.lock_wait
                + self.poll_detection)

    def dominant(self) -> str:
        pairs = [(getattr(self, w), w) for w in WAIT_STATES]
        best = max(pairs, key=lambda p: (p[0], p[1]))
        return best[1] if best[0] > 0.0 else "none"

    def as_dict(self) -> Dict[str, float]:
        return {w: getattr(self, w) for w in WAIT_STATES}


def classify_waits(model: PerfModel) -> List[RankWaits]:
    """Compute per-rank wait-state totals, sorted by rank."""
    out: Dict[object, RankWaits] = {}

    def rw(rank: object) -> RankWaits:
        w = out.get(rank)
        if w is None:
            w = out[rank] = RankWaits(rank)
        return w

    for rank in model.sorted_ranks():
        rv = model.ranks[rank]
        w = rw(rank)
        # -- late sender: blocking waits and TAMPI pending recvs that
        # started before the matching message was injected
        for rec in rv.blocked + rv.iwaits:
            if rec.kind != "recv":
                continue
            sent_at = rec.sent_at
            if sent_at is not None and sent_at > rec.t0:
                w.late_sender += min(sent_at, rec.t1) - rec.t0
        # -- lock wait: MPI global-lock and GASPI queue-device waits
        for rec in rv.mpi_calls:
            w.lock_wait += rec.wait
        for rec in rv.iwaits:
            w.lock_wait += rec.lock_wait
        for wait in rv.gaspi_waits:
            w.lock_wait += wait
        # -- notifications: registered-before-arrival is a late
        # notification; arrival-before-detection is polling delay
        for nw in rv.notify_waits:
            if nw.immediate:
                continue
            if nw.arrival_at is not None:
                if nw.arrival_at > nw.registered_at:
                    w.late_notification += (min(nw.arrival_at, nw.fulfilled_at)
                                            - nw.registered_at)
                detect = nw.fulfilled_at - max(nw.arrival_at, nw.registered_at)
                if detect > 0.0:
                    w.poll_detection += detect
            else:
                # no arrival record: count the whole pending window as
                # notification wait (conservative)
                w.late_notification += max(
                    0.0, nw.fulfilled_at - nw.registered_at)
        # -- poller detection delay on RMA request completion
        for rec in rv.detects:
            w.poll_detection += rec.t1 - rec.t0

    return [out[r] for r in sorted(out, key=lambda r:
                                   (not isinstance(r, int), str(r)))]


def dominant_wait(waits: List[RankWaits]) -> str:
    """The dominant wait state across the whole run."""
    totals = {ws: 0.0 for ws in WAIT_STATES}
    for w in waits:
        for ws in WAIT_STATES:
            totals[ws] += getattr(w, ws)
    best = max(totals.items(), key=lambda kv: (kv[1], kv[0]))
    return best[0] if best[1] > 0.0 else "none"
