"""Two-sided message matching.

Implements the posted-receive queue and unexpected-message queue that every
real MPI keeps per process. Matching is FIFO within the queues, which —
combined with the network's per-(src, dst) FIFO delivery — yields MPI's
non-overtaking guarantee: two messages from the same sender with tags that
match the same receive are received in send order.

The cost of walking these queues is part of why fine-grained two-sided
messaging loses to one-sided (paper §I); the per-message ``mpi.match``
fabric cost stands in for it. That *simulated* cost is unchanged here —
what this module optimizes is the **simulator's own wall-clock** cost of
the walk, which used to be O(queue depth) per operation:

* :class:`MatchingEngine` buckets both queues by ``(source, tag)``. A
  fully-specified receive or an arriving message resolves in O(1) by
  looking at (at most four) bucket heads and taking the lowest posting
  sequence number.
* Unexpected messages live in one insertion-ordered ``dict`` mapping an
  arrival sequence number to the message; each ``(source, tag)`` bucket
  holds the arrival seqs of its messages. A match pops the seq from its
  bucket and the message from the dict, both O(1), so the queue holds
  exactly the live unexpected messages: a matched message (and its
  payload copy) is released the moment it is received. Wildcard receives
  (``ANY_SOURCE`` / ``ANY_TAG``) walk the dict's values, which is exactly
  the arrival order a linear walk would see.
* :class:`LinearMatchingEngine` keeps the original O(n) deque walk as the
  differential-testing oracle (tests/test_properties.py) and as the
  baseline ``python -m repro.bench`` measures the indexed engine against.

FIFO equivalence argument (property-tested against the oracle):

* *incoming → posted*: every posted receive sits in exactly one bucket,
  appended in posting order, so each bucket head is its bucket's earliest
  post; the earliest matching post overall is therefore the minimum
  posting-sequence among the ≤4 candidate bucket heads.
* *post_recv → unexpected*: for a fully-specified receive, every matching
  message lives in exactly the ``(source, tag)`` bucket, FIFO by arrival —
  the head is the earliest match. For a wildcard receive, the arrival dict
  is walked in arrival order; the first match found is also its own
  bucket's head, because any earlier message of that bucket has the same
  ``(source, tag)``, would have matched too, and precedes it in the walk.
  So the match still pops its bucket's head in O(1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.mpi.requests import Request
from repro.network.message import Message


def _req_matches_msg(req: Request, msg: Message) -> bool:
    if req.peer not in (ANY_SOURCE, msg.src_rank):
        return False
    tag = msg.meta["tag"]
    return req.tag in (ANY_TAG, tag)


class MatchingEngine:
    """Per-rank posted/unexpected queues, indexed by ``(source, tag)``."""

    __slots__ = ("_posted", "_post_seq", "_posted_len", "_wild_posted",
                 "_unexpected", "_arrivals", "_arrival_seq")

    def __init__(self) -> None:
        #: (source, tag) -> deque[(post_seq, Request)]; wildcard receives
        #: use the ANY_* sentinels directly as key components
        self._posted: Dict[Tuple[int, int], Deque] = {}
        self._post_seq = 0
        self._posted_len = 0
        #: posted receives currently queued under a wildcard key — when
        #: zero, arriving messages probe a single bucket instead of four
        self._wild_posted = 0
        #: (source, tag) -> deque of arrival seqs, FIFO by arrival
        self._unexpected: Dict[Tuple[int, int], Deque[int]] = {}
        #: arrival seq -> message for every live unexpected message, in
        #: arrival order (the wildcard walk)
        self._arrivals: Dict[int, Message] = {}
        self._arrival_seq = 0

    # -- receiver side -------------------------------------------------
    def post_recv(self, req: Request) -> Optional[Message]:
        """Try to satisfy ``req`` from the unexpected queue; if impossible,
        post it. Returns the matched message, if any."""
        peer, tag = req.peer, req.tag
        if peer != ANY_SOURCE and tag != ANY_TAG:
            bucket = self._unexpected.get((peer, tag))
            if bucket:
                return self._consume_unexpected((peer, tag), bucket)
        else:
            for msg in self._arrivals.values():
                if (peer == ANY_SOURCE or peer == msg.src_rank):
                    mtag = msg.meta["tag"]
                    if tag == ANY_TAG or tag == mtag:
                        key = (msg.src_rank, mtag)
                        head = self._consume_unexpected(
                            key, self._unexpected[key])
                        assert head is msg, "match must be its bucket's head"
                        return head
        self._post_seq += 1
        key = (peer, tag)
        bucket = self._posted.get(key)
        if bucket is None:
            bucket = self._posted[key] = deque()
        bucket.append((self._post_seq, req))
        self._posted_len += 1
        if peer == ANY_SOURCE or tag == ANY_TAG:
            self._wild_posted += 1
        return None

    def _consume_unexpected(self, key: Tuple[int, int],
                            bucket: Deque[int]) -> Message:
        """Remove the head of ``key``'s ``bucket`` from the unexpected
        structures and return its message."""
        seq = bucket.popleft()
        if not bucket:
            del self._unexpected[key]
        return self._arrivals.pop(seq)

    # -- network side ----------------------------------------------------
    def incoming(self, msg: Message) -> Optional[Request]:
        """Try to match an arriving first-contact message (eager data or
        rendezvous RTS) against posted receives; otherwise buffer it."""
        src = msg.src_rank
        tag = msg.meta["tag"]
        posted = self._posted
        best_key = None
        if self._wild_posted:
            best_seq = None
            for key in ((src, tag), (ANY_SOURCE, tag),
                        (src, ANY_TAG), (ANY_SOURCE, ANY_TAG)):
                bucket = posted.get(key)
                if bucket:
                    seq = bucket[0][0]
                    if best_seq is None or seq < best_seq:
                        best_seq = seq
                        best_key = key
        elif posted.get((src, tag)):
            best_key = (src, tag)
        if best_key is not None:
            bucket = posted[best_key]
            _seq, req = bucket.popleft()
            if not bucket:
                del posted[best_key]
            self._posted_len -= 1
            if best_key[0] == ANY_SOURCE or best_key[1] == ANY_TAG:
                self._wild_posted -= 1
            return req
        seq = self._arrival_seq = self._arrival_seq + 1
        self._arrivals[seq] = msg
        key = (src, tag)
        bucket = self._unexpected.get(key)
        if bucket is None:
            bucket = self._unexpected[key] = deque()
        bucket.append(seq)
        return None

    # -- introspection -----------------------------------------------------
    @property
    def posted_depth(self) -> int:
        return self._posted_len

    @property
    def unexpected_depth(self) -> int:
        return len(self._arrivals)


class LinearMatchingEngine:
    """The original O(n) deque-walk matcher.

    Kept verbatim as (a) the differential-testing oracle the indexed
    :class:`MatchingEngine` is property-tested against, and (b) the
    baseline the matching microbenchmark (``python -m repro.bench``)
    records its speedup over. Not used on any hot path.
    """

    __slots__ = ("posted", "unexpected")

    def __init__(self) -> None:
        self.posted: Deque[Request] = deque()
        self.unexpected: Deque[Message] = deque()

    def post_recv(self, req: Request) -> Optional[Message]:
        for i, msg in enumerate(self.unexpected):
            if _req_matches_msg(req, msg):
                del self.unexpected[i]
                return msg
        self.posted.append(req)
        return None

    def incoming(self, msg: Message) -> Optional[Request]:
        for i, req in enumerate(self.posted):
            if _req_matches_msg(req, msg):
                del self.posted[i]
                return req
        self.unexpected.append(msg)
        return None

    @property
    def posted_depth(self) -> int:
        return len(self.posted)

    @property
    def unexpected_depth(self) -> int:
        return len(self.unexpected)
