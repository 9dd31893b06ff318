"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.sim import Engine
from repro.network import Cluster, OMNIPATH, INFINIBAND


def _silent_trace(_time, _event):
    pass


#: The two engine set-ups the differential cases run on: the dispatch
#: loop's one remaining branch is its per-event hook, so each case runs
#: with the hook absent and with it present. The ids are the ones these
#: cases carried when the axis compared two engine classes; CI history
#: and the tier-1 floor list track cases by id, so they are left for a
#: tests-only rename.
ENGINE_SETUPS = [
    pytest.param(Engine, id="ObjectEngine"),
    pytest.param(functools.partial(Engine, trace=_silent_trace),
                 id="BatchedEngine"),
]


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def cluster2(engine):
    """Two nodes, one rank each, Omni-Path fabric, no jitter."""
    cl = Cluster(engine, 2, OMNIPATH)
    cl.place_ranks_block(2, 1)
    return cl


@pytest.fixture
def cluster4(engine):
    """Two nodes, two ranks each (mixed intra/inter paths)."""
    cl = Cluster(engine, 2, OMNIPATH)
    cl.place_ranks_block(4, 2)
    return cl


def run_all(engine, procs, max_events=2_000_000):
    """Step the engine until every process in ``procs`` terminated; raise
    the first failure encountered."""
    pending = list(procs)
    fired = 0
    while any(not p.triggered for p in pending):
        if engine.peek() == float("inf"):
            alive = [p.name for p in pending if not p.triggered]
            raise AssertionError(f"deadlock: processes still alive: {alive}")
        engine.step()
        fired += 1
        if fired > max_events:
            raise AssertionError("event budget exceeded")
    for p in pending:
        if p.ok is False:
            raise p.value
    return engine.now
