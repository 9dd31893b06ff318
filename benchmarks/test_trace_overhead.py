"""Tracing overhead guard: the null tracer must be (near-)free and fully
passive, even a recording tracer must never move simulated results, and
the ``perf=True`` observer folds its model online without retaining a
single record.

Not a paper figure — this protects the "zero cost when disabled" contract
of ``repro.trace`` (DESIGN note in src/repro/trace/tracer.py) so the
instrumentation threaded through every layer can stay on permanently.
"""

import time

import pytest

from benchmarks.conftest import emit, run_once
from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.harness import JobSpec, MARENOSTRUM4, format_table
from repro.perf import PerfTracer
from repro.trace import Tracer

MACH4 = MARENOSTRUM4.with_cores(4)
PARAMS = GSParams(rows=96, cols=64, timesteps=4, block_size=16,
                  compute_data=False)


def _spec(perf=False):
    return JobSpec(machine=MACH4, n_nodes=4, variant="tagaspi",
                   poll_period_us=25, seed=7, perf=perf)


def _timed(tracer, perf=False):
    t0 = time.perf_counter()
    res = run_gauss_seidel(_spec(perf), PARAMS, tracer=tracer)
    return res, time.perf_counter() - t0


@pytest.mark.benchmark(group="trace")
def test_trace_overhead(benchmark):
    def sweep():
        # interleave to be fair to CPU frequency drift
        rows = []
        for label, mk, perf in [
                ("disabled", lambda: None, False),
                ("recording", lambda: Tracer(progress_every=200), False),
                # the tracer a perf=True job makes for itself, passed in
                # only so its records can be counted
                ("perf=True", PerfTracer, True)]:
            best = float("inf")
            res = tracer = None
            for _ in range(3):
                tracer = mk()
                res, dt = _timed(tracer, perf=perf)
                best = min(best, dt)
            rows.append((label, res, best,
                         0 if tracer is None else len(tracer.records)))
        return rows

    rows = run_once(benchmark, sweep)
    (_, r0, t0, _), (_, r1, t1, _), (_, r2, _, retained) = rows
    emit(format_table(
        "tracing overhead (Gauss-Seidel tagaspi, 4 nodes)",
        ["tracer", "sim_time (s)", "throughput", "wall (s)", "slowdown",
         "records kept"],
        [[label, r.sim_time, r.throughput, t, t / t0, kept]
         for label, r, t, kept in rows],
    ))

    # passivity is a hard guarantee: observing must not move the simulation
    for r in (r1, r2):
        assert r0.sim_time == r.sim_time
        assert r0.throughput == r.throughput
        assert r0.extra["messages"] == r.extra["messages"]
    # the perf observer diagnoses the run from zero retained records
    assert retained == 0 and "perf_dominant_wait" in r2.extra
    # wall-clock overhead is environment-dependent; guard only against the
    # pathological (recording must not be order-of-magnitude slower)
    assert t1 < t0 * 10
