"""MPI matching: the indexed ``MatchingEngine`` against the linear walk.

Posts sources × tags fully-specified receives, then delivers one message
per receive in *reverse* posting order, so the linear oracle
(tests/reference/linear_matching.py) scans deep on every arrival while
the indexed engine resolves each at a bucket head. Both must pair every
message with the same receive. The indexed engine must win by at least
2× even at the small size: the gap is O(1) against O(queue depth) per
operation, not a constant factor.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from benchmarks.explain.conftest import best_of
from repro.mpi.matching import MatchingEngine
from repro.mpi.requests import Request
from repro.network.message import Message
from repro.sim.engine import Engine
from tests.reference.linear_matching import LinearMatchingEngine


def _subject(matcher_cls, sources: int, tags: int):
    eng = Engine()
    recvs = [Request(eng, "recv", 0, src, tag, None, 8)
             for src in range(1, sources + 1) for tag in range(tags)]
    msgs = [Message(src_rank=src, dst_rank=0, protocol="mpi", kind="eager",
                    nbytes=8, meta={"tag": tag})
            for src in range(1, sources + 1) for tag in range(tags)]
    msgs.reverse()
    return matcher_cls(), recvs, msgs


def _match_all(subject):
    """Post every receive, deliver every message; returns the
    ``(peer, tag)`` of the receive each message matched."""
    me, recvs, msgs = subject
    for req in recvs:
        me.post_recv(req)
    return [(req.peer, req.tag) for req in map(me.incoming, msgs)]


@pytest.mark.parametrize("sources,tags", [(16, 8), (64, 48)])
def test_indexed_matcher_beats_linear_walk(sources, tags):
    expected = [(src, tag) for src in range(sources, 0, -1)
                for tag in range(tags - 1, -1, -1)]
    for cls in (LinearMatchingEngine, MatchingEngine):
        assert _match_all(_subject(cls, sources, tags)) == expected, cls

    ops = 2 * sources * tags  # posts + deliveries
    linear_s = best_of(3, lambda: _subject(LinearMatchingEngine, sources,
                                           tags), _match_all)
    indexed_s = best_of(3, lambda: _subject(MatchingEngine, sources, tags),
                        _match_all)
    speedup = linear_s / indexed_s
    emit(f"matching {sources}x{tags}: linear {ops / linear_s:,.0f} ops/s, "
         f"indexed {ops / indexed_s:,.0f} ops/s, speedup {speedup:.1f}x")
    assert speedup >= 2.0
