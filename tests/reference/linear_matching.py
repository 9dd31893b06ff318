"""The original O(n) deque-walk matcher: the oracle for ``MatchingEngine``.

Kept verbatim the way ``heap_engine.py`` keeps the one-heap engine. The
indexed :class:`repro.mpi.matching.MatchingEngine` is property-tested
against it on random interleavings, wildcards included
(tests/test_properties.py), and ``benchmarks/explain/test_matching.py``
times the two side by side. Nothing in ``src/`` uses it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.mpi.requests import Request
from repro.network.message import Message


def _req_matches_msg(req: Request, msg: Message) -> bool:
    if req.peer not in (ANY_SOURCE, msg.src_rank):
        return False
    tag = msg.meta["tag"]
    return req.tag in (ANY_TAG, tag)


class LinearMatchingEngine:
    """FIFO posted/unexpected deques, walked front to back."""

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
