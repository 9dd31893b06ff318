"""Callback worker cores vs the generator-worker oracle.

``repro.tasking.scheduler.Worker`` runs a task from engine callbacks and
``ReadyQueue.push`` hands a task straight to an idle core
(docs/performance.md, "A worker core is a callback"). Nothing observable
may move: every hybrid job here runs once on the product path and once
with the generator worker of tests/reference/generator_worker.py swapped
in (test-only monkeypatch, there is no product switch). The two must
agree byte for byte on the ``VariantResult`` (every ``extra`` key), the
dependency edges of every runtime, the checker findings and their report
text, and the recorded trace; the product side fires exactly one event
fewer per pop event the oracle fired when dispatch costs time, and the
same events when it does not.
"""

import dataclasses
import pickle

import pytest

from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.apps.miniamr import AMRParams, run_miniamr
from repro.apps.streaming import StreamingParams, run_streaming
from repro.harness import CTE_AMD, JobSpec, MARENOSTRUM4
from repro.harness.runner import Job
from repro.tasking import RuntimeConfig
from repro.trace import Tracer

from tests.reference.generator_worker import generator_workers

MACH4 = MARENOSTRUM4.with_cores(4)
CTE4 = CTE_AMD.with_cores(4)

#: shape -> (runner, params, machine); every shape runs under tampi and
#: tagaspi
SHAPES = {
    "gs": (run_gauss_seidel,
           GSParams(rows=48, cols=64, timesteps=3, block_size=16,
                    compute_data=False), MACH4),
    "miniamr": (run_miniamr,
                AMRParams(nx=2, ny=2, nz=2, max_level=1, timesteps=2,
                          refine_every=1, variables=4, compute_data=False),
                MACH4),
    "streaming": (run_streaming,
                  StreamingParams(chunks=3, elements_per_chunk=512,
                                  block_size=64, compute_data=False), MACH4),
    "streaming-no-onready": (run_streaming,
                             StreamingParams(chunks=3, elements_per_chunk=512,
                                             block_size=64, compute_data=False,
                                             use_onready=False), MACH4),
    # Fig. 13's machine: Open MPI's heavier calls, 15 us polling
    "streaming-cte": (run_streaming,
                      StreamingParams(chunks=3, elements_per_chunk=1024,
                                      block_size=64, compute_data=False),
                      CTE4),
}

#: dispatch_overhead: none (the wake takes the pop's lane slot), the
#: default (equal to MareNostrum4's ``mpi.call`` hold), and each fabric's
#: ``mpi.call`` hold, so dispatches tie with lock releases
DISPATCH = ("zero", "default", "mpi.call")

OBSERVERS = {"plain": {}, "perf": {"perf": True}, "check": {"check": "report"}}


def _spec(shape, variant, seed, dispatch, **kw):
    _, _, machine = SHAPES[shape]
    rc = None
    if dispatch != "default":
        cost = 0.0 if dispatch == "zero" else machine.fabric.sw["mpi.call"]
        rc = RuntimeConfig(n_cores=machine.cores_per_node,
                           dispatch_overhead=cost)
    poll = 15 if shape == "streaming-cte" else 50
    return JobSpec(machine=machine, n_nodes=2, variant=variant, seed=seed,
                   poll_period_us=poll, runtime_config=rc, **kw)


def _run(shape, spec, tracer=None):
    """The result plus what the jobs leave behind: events fired, each
    runtime's dependency edges, and the checker findings and report."""
    runner, params, _ = SHAPES[shape]
    seen = {"events": 0, "edges": [], "findings": [], "reports": []}
    real_run = Job.run

    def observing_run(job, *a, **kw):
        try:
            return real_run(job, *a, **kw)
        finally:
            seen["events"] += job.engine.event_count
            seen["edges"] += [rt.deps.edges for rt in job.runtimes]
            if job.analysis is not None:
                seen["findings"] += [repr(f) for f in job.analysis.findings]
                seen["reports"].append(job.analysis.report())

    Job.run = observing_run
    try:
        res = runner(spec, params, **({} if tracer is None
                                      else {"tracer": tracer}))
    finally:
        Job.run = real_run
    return res, seen


def _both(shape, spec, tracers=(None, None)):
    new, seen_new = _run(shape, spec, tracers[0])
    with generator_workers() as pops:
        old, seen_old = _run(shape, spec, tracers[1])
    # a readable diff first, then the byte-for-byte claim
    assert new.sim_time == old.sim_time
    assert new.extra.keys() == old.extra.keys()
    diff = {k: (v, old.extra[k]) for k, v in new.extra.items()
            if pickle.dumps(v) != pickle.dumps(old.extra[k])}
    assert not diff
    assert pickle.dumps(dataclasses.asdict(new)) == \
        pickle.dumps(dataclasses.asdict(old))
    for key in ("edges", "findings", "reports"):
        assert seen_new[key] == seen_old[key], key
    return seen_new["events"], seen_old["events"], pops[0]


@pytest.mark.parametrize("observe", sorted(OBSERVERS))
@pytest.mark.parametrize("seed", [None, 1, 101])
@pytest.mark.parametrize("dispatch", DISPATCH)
@pytest.mark.parametrize("variant", ["tampi", "tagaspi"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_identical_to_generator_worker(shape, variant, dispatch, seed,
                                       observe):
    spec = _spec(shape, variant, seed, dispatch, **OBSERVERS[observe])
    n_new, n_old, pops = _both(shape, spec)
    assert pops > 0
    if dispatch == "zero":
        assert n_new == n_old  # the wake fires in the pop's lane slot
    else:
        assert n_new == n_old - pops


def _records(tracer):
    """Every record the layers emitted, as a multiset (sorted reprs). The
    tracers record no progress spans: those count engine events."""
    return sorted(repr(r) for r in tracer.records)


@pytest.mark.parametrize("dispatch", DISPATCH)
@pytest.mark.parametrize("variant", ["tampi", "tagaspi"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_recorded_trace_is_the_same_multiset(shape, variant, dispatch):
    spec = _spec(shape, variant, 1, dispatch)
    tracers = (Tracer(progress_every=None), Tracer(progress_every=None))
    _both(shape, spec, tracers)
    assert tracers[0].records
    assert _records(tracers[0]) == _records(tracers[1])
