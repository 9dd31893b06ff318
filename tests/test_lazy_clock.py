"""Lazy completion + rank-private arithmetic time vs the eager oracle.

``repro.mpi.requests.Request`` fires a completion only for a waiter that
suspends on it and ``repro.mpi.comm.MPIProcDriver`` keeps a local clock
instead of a ``Timeout`` per charge (docs/performance.md, "Completion is a
timestamp; rank-private time is arithmetic"). Nothing observable may move:
every job here runs once on the product path and once with the pre-change
classes of tests/reference/eager_mpi.py swapped in (test-only monkeypatch,
there is no product switch), and the two ``VariantResult``s must be
byte-identical — every ``extra`` key, observers on or off — while the lazy
side fires fewer events. Below the job-level cases: exact
``event_count`` pins, and a hypothesis replay of ``Request.done`` /
``wait_event`` against the eager ``Request`` on a bare engine.
"""

import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.cg import CGParams, run_cg
from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.apps.miniamr import AMRParams, run_miniamr
from repro.apps.streaming import StreamingParams, run_streaming
from repro.faults import FaultPlan
from repro.harness import JobSpec, MARENOSTRUM4
from repro.harness.runner import Job
from repro.mpi.requests import Request
from repro.sim import Engine
from repro.trace import Tracer

from tests.reference.eager_mpi import Request as EagerRequest, eager

MACH4 = MARENOSTRUM4.with_cores(4)

#: app -> (runner, params, JobSpec fields); all variant="mpi", test size
APPS = {
    "gs-mpi": (run_gauss_seidel,
               GSParams(rows=48, cols=32, timesteps=3, block_size=8,
                        compute_data=False), {}),
    "streaming-mpi": (run_streaming,
                      StreamingParams(chunks=3, elements_per_chunk=512,
                                      block_size=64, compute_data=False), {}),
    "miniamr-mpi": (run_miniamr,
                    AMRParams(nx=2, ny=2, nz=2, max_level=1, timesteps=2,
                              refine_every=1, variables=4,
                              compute_data=False), {}),
    "cg-twosided": (run_cg, CGParams(n=64, iterations=3, compute_data=False),
                    {"backend": "twosided"}),
    "cg-rma": (run_cg, CGParams(n=64, iterations=3, compute_data=False),
               {"backend": "rma"}),
    "cg-gaspi": (run_cg, CGParams(n=64, iterations=3, compute_data=False),
                 {"backend": "gaspi"}),
    # blocks of 16384 doubles = 128 KiB > Omni-Path's 64 KiB eager
    # threshold: every halo is a rendezvous, so waits meet a non-empty
    # _pending_sends and must sync
    # (gs-mpi posts its sends for step t+1 before the receives: it needs
    # eager sends and deadlocks on either path at this size)
    "streaming-rendezvous": (run_streaming,
                             StreamingParams(chunks=3,
                                             elements_per_chunk=65536,
                                             block_size=16384,
                                             compute_data=False), {}),
}

OBSERVERS = {
    "plain": {},
    "perf": {"perf": True},
    "check": {"check": "report"},
}


def _run(app, seed, n_nodes=2, tracer=None, **spec_kw):
    runner, params, fields = APPS[app]
    spec = JobSpec(machine=MACH4, n_nodes=n_nodes, variant="mpi", seed=seed,
                   **fields, **spec_kw)
    fired = []
    real_run = Job.run

    def counting_run(job, *a, **kw):
        try:
            return real_run(job, *a, **kw)
        finally:
            fired.append(job.engine.event_count)

    Job.run = counting_run
    try:
        res = runner(spec, params, **({} if tracer is None
                                      else {"tracer": tracer}))
    finally:
        Job.run = real_run
    return res, sum(fired)


def _bytes(res):
    return pickle.dumps(dataclasses.asdict(res))


def _both(app, seed, **kw):
    lazy, n_lazy = _run(app, seed, **kw)
    with eager():
        oracle, n_eager = _run(app, seed, **kw)
    # a readable diff first, then the byte-for-byte claim
    assert lazy.sim_time == oracle.sim_time
    assert lazy.extra.keys() == oracle.extra.keys()
    diff = {k: (v, oracle.extra[k]) for k, v in lazy.extra.items()
            if pickle.dumps(v) != pickle.dumps(oracle.extra[k])}
    assert not diff
    assert _bytes(lazy) == _bytes(oracle)
    return lazy, n_lazy, n_eager


@pytest.mark.parametrize("seed", [None, 1, 101])
@pytest.mark.parametrize("observe", sorted(OBSERVERS))
@pytest.mark.parametrize("app", sorted(APPS))
def test_result_identical_to_eager_oracle(app, observe, seed):
    _, n_lazy, n_eager = _both(app, seed, **OBSERVERS[observe])
    assert n_lazy < n_eager


def _records(tracer):
    """Everything the layers emitted, order-free: a lazily computed span is
    emitted when it is computed, not when it ends. Left out: the engine's
    own ``sim`` progress records (they count events), and zero-length
    ``*.block`` spans — a wait that meets its completion at the very same
    instant blocks for no time; the eager path recorded an empty span for
    it whenever the completion's queue slot happened to follow the
    waiter's timeout, the arithmetic path (``completed_at <= t``) never."""
    return sorted(
        # RMA windows are numbered by a process-wide counter
        re.sub(r"rma\d+", "rma", repr(r)) for r in tracer.records
        if r.category != "sim"
        and not (r.name.endswith(".block") and r.t0 == r.t1))


@pytest.mark.parametrize("seed", [None, 1, 101])
@pytest.mark.parametrize("app", sorted(APPS))
def test_recorded_trace_is_the_same_multiset(app, seed):
    lazy_tr, eager_tr = Tracer(), Tracer()
    lazy, _ = _run(app, seed, tracer=lazy_tr)
    with eager():
        oracle, _ = _run(app, seed, tracer=eager_tr)
    assert _bytes(lazy) == _bytes(oracle)
    a, b = _records(lazy_tr), _records(eager_tr)
    assert len(a) == len(b)
    assert a == b


@pytest.mark.parametrize("seed", [None, 1, 101])
def test_faulted_rendezvous_retry(seed):
    # lossy wire + a short handshake RTO: RTS retries really fire, and the
    # retry handler shares the MPI lock with the rank's own lazy entries
    plan = FaultPlan(drop_prob=0.15, dup_prob=0.05, rendezvous_retry=True,
                     rendezvous_rto=4e-6)
    res, _, _ = _both("streaming-rendezvous", seed, n_nodes=3, faults=plan)
    assert res.extra["rendezvous_msgs"] > 0
    assert res.extra["fault_rendezvous_retries"] > 0


# --------------------------------------------------------------------------
# event-count pins: golden.json deliberately pins no event counts, so a
# regression that brings the per-call timeouts back would pass everything
# else. One small job per driver-using app, unseeded (deterministic).
# --------------------------------------------------------------------------
#: app -> events fired (on the eager oracle: 1259, 256, 4262, 1930, 5667, 5174)
EVENT_PINS = {
    "gs-mpi": 654,
    "streaming-mpi": 140,
    "miniamr-mpi": 2297,
    "cg-twosided": 1882,
    "cg-rma": 5619,
    "cg-gaspi": 5126,
}


@pytest.mark.parametrize("app", sorted(EVENT_PINS))
def test_event_count_pin(app):
    _, fired = _run(app, None)
    assert fired == EVENT_PINS[app]


# --------------------------------------------------------------------------
# Request.done / wait_event against the eager Request on a bare Engine
# --------------------------------------------------------------------------
_UNIT = 0.5  # exact in binary: grid times collide bit-for-bit
_ACTIONS = st.tuples(
    st.sampled_from(["complete", "read", "wait", "waitall", "spawn"]),
    st.integers(0, 3),   # which request
    st.integers(0, 2))   # completion delay in units (0: this very instant)
_ACTORS = st.lists(
    st.lists(st.tuples(st.integers(0, 2), _ACTIONS), max_size=6),
    min_size=1, max_size=5)


def _play(request_cls, actors):
    """Run the scripted actors over four requests of ``request_cls``;
    returns (log of every read and wake-up, final now, events fired)."""
    eng = Engine()
    reqs = [request_cls(eng, "recv", 0, 1, i, None, 0) for i in range(4)]
    log = []

    def reader(name, i):
        # the first read runs inside the process's urgent start event
        log.append((name, "read", i, reqs[i].done, eng.now))
        yield eng.timeout(0.0)
        log.append((name, "reread", i, reqs[i].done, eng.now))

    def actor(name, steps):
        for delay, (kind, i, d) in steps:
            yield eng.timeout(delay * _UNIT)  # 0: the immediate lane
            r = reqs[i]
            if kind == "complete":
                if r.completed_at is None:
                    r.complete_at(eng.now + d * _UNIT)
            elif kind == "read":
                log.append((name, "read", i, r.done, eng.now))
            elif kind == "spawn":
                eng.process(reader(name + "+", i))
            else:
                group = [r] if kind == "wait" else [r, reqs[(i + 1) % 4]]
                still = [q for q in group if not q.done]
                if still:
                    yield eng.all_of([q.wait_event() for q in still])
                # (no `done` in a wake-up record: the eager request flips
                # its state in a callback queued behind a waiter that was
                # attached before complete_at — that waiter alone reads
                # False on wake-up, and no caller re-reads)
                log.append((name, kind, i, eng.now))

    def closer():
        # suspended on every request from t=0 (the waiter-already-attached
        # path); a sweeper completes the leftovers so it always finishes
        for i, r in enumerate(reqs):
            if not r.done:
                yield r.wait_event()
            log.append(("closer", "woke", i, eng.now))

    def sweeper():
        yield eng.timeout(20 * _UNIT)
        for i, r in enumerate(reqs):
            if r.completed_at is None:
                r.complete_at(eng.now + (i % 2) * _UNIT)

    eng.process(closer())
    for n, steps in enumerate(actors):
        eng.process(actor(f"a{n}", steps))
    eng.process(sweeper())
    eng.run()
    return log, eng.now, eng.event_count


@given(_ACTORS)
@settings(max_examples=300, deadline=None)
def test_request_done_and_wait_event_match_eager_request(actors):
    lazy_log, lazy_now, lazy_fired = _play(Request, actors)
    eager_log, eager_now, eager_fired = _play(EagerRequest, actors)
    assert lazy_log == eager_log  # same answers, same wake order
    assert lazy_now == eager_now
    assert lazy_fired <= eager_fired
