"""The pinned microbenchmark suite behind ``python -m repro.bench``.

Seven benchmarks, each emitting one ``BENCH_<name>.json``:

``matching``
    Matches/sec posting receives and delivering messages across a
    (sources × tags) grid, indexed :class:`MatchingEngine` vs the O(n)
    :class:`LinearMatchingEngine` oracle. Deliveries arrive in reverse
    posting order so the linear walk always scans deep.

``nic``
    Messages/sec through the full network path: ``Cluster.send`` with NIC
    serialization, link latency and per-channel FIFO, drained by
    ``Engine.run``. No legacy baseline (the network layer did not change);
    this pins the end-to-end message cost against regressions.

``gs``
    A mid-size Gauss–Seidel point through the real harness (``build_job`` →
    variant main → ``Job.run``): wall time, fired events, events/sec, and
    the simulated-time figure of merit. The closest thing to "what users
    feel"; cost-model only (``compute_data=False``) so it measures the
    simulator, not numpy.

``sweep``
    A fig-09-style grid through :mod:`repro.harness.parallel`: serial vs
    multi-process wall time (identical results asserted) plus a cold/warm
    result-cache pass (warm re-run executes zero jobs). ``--workers``
    selects the pool size.

``analysis``
    The correctness-checker cost model (docs/analysis.md): one tagaspi
    Gauss–Seidel point with checking off vs ``check="report"`` vs
    ``check="strict"`` (asserting identical simulated time — the
    bit-identity contract — and zero findings), plus the wall time of the
    static determinism lint over ``src/``. The ``overhead_report`` ratio
    is the number to watch; the unchecked run doubles as the
    zero-cost-when-disabled regression guard against ``gs`` history.

``collectives``
    The three collective backends (two-sided trees, RMA fence+Get, GASPI
    notification rings) head-to-head on *simulated* time: a large-message
    allreduce per backend per rank count — asserting the GASPI ring beats
    the two-sided tree at the largest scale, the package's acceptance
    property — plus the CG mini-app swept over the harness ``backend=``
    axis. The ``speedup`` ratio is deterministic (simulated seconds, not
    wall), so the regression gate on it is exact.

``verify``
    Files/s of the CFG/dataflow protocol verifier over the CI-gated trees,
    asserting on the fly that they are clean and that every seeded example
    under ``examples/static/`` is flagged.

Methodology, applied uniformly: all object construction happens *outside*
the timed region; every timed region is repeated ``reps`` times and the
best (minimum) wall time is kept, which is the standard way to reject
scheduler/frequency noise on a shared machine; the cyclic garbage
collector is paused inside each timed region (after an explicit collect)
so collection pauses triggered by build-phase garbage do not land inside
one side of a comparison; and both sides of every A/B comparison run
rep-interleaved (A, B, A, B, ...) in the same process so thermal/clock
drift cannot systematically favor whichever side runs last.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Callable, Dict, List

from repro.sim.engine import Engine

_BUILDERS: Dict[str, Callable[..., dict]] = {}


def bench_names() -> List[str]:
    return list(_BUILDERS)


def run_bench(name: str, quick: bool = False, **kwargs) -> dict:
    """Run one benchmark; returns its JSON-ready payload. Extra kwargs
    (e.g. ``workers=`` for the ``sweep`` benchmark) are forwarded only to
    builders that accept them."""
    import inspect

    fn = _BUILDERS[name]
    accepted = inspect.signature(fn).parameters
    kwargs = {k: v for k, v in kwargs.items() if k in accepted and v is not None}
    return fn(quick=quick, **kwargs)


def _register(fn):
    _BUILDERS[fn.__name__.replace("bench_", "")] = fn
    return fn


def _timed(build, run) -> float:
    """Wall seconds of ``run(build())``; construction is never timed and
    the GC is quiesced (collected, then paused) around the timed region."""
    subject = build()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        run(subject)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def _best_of(reps: int, build, run) -> float:
    """min-of-``reps`` wall seconds of ``run(build())``."""
    best = float("inf")
    for _ in range(reps):
        best = min(best, _timed(build, run))
    return best


def _pairs(reps: int, build_a, run_a, build_b, run_b):
    """``reps`` wall-second samples of two subjects, rep-interleaved
    (A, B, A, B, ...) so slow drift hits both sides equally. Returns
    ``(samples_a, samples_b)``; sample *i* of each side ran back to back."""
    return tuple(zip(*[(_timed(build_a, run_a), _timed(build_b, run_b))
                       for _ in range(reps)]))


def _best_of_pair(reps: int, build_a, run_a, build_b, run_b):
    """min-of-``reps`` of :func:`_pairs`: ``(best_a, best_b)``."""
    a, b = _pairs(reps, build_a, run_a, build_b, run_b)
    return min(a), min(b)


# ----------------------------------------------------------------------
# matching
# ----------------------------------------------------------------------
def _matching_ops(me_cls, sources: int, tags: int):
    """Post sources×tags receives, then deliver one message per receive in
    *reverse* posting order (worst case for a linear queue walk)."""
    from repro.mpi.matching import _req_matches_msg  # noqa: F401 (doc link)
    from repro.mpi.requests import Request
    from repro.network.message import Message
    from repro.sim.engine import Engine as _E

    eng = _E()
    recvs = [Request(eng, "recv", 0, src, tag, None, 8)
             for src in range(1, sources + 1) for tag in range(tags)]
    msgs = [Message(src_rank=src, dst_rank=0, protocol="mpi", kind="eager",
                    nbytes=8, meta={"tag": tag})
            for src in range(1, sources + 1) for tag in range(tags)]
    msgs.reverse()
    me = me_cls()
    return me, recvs, msgs


def _run_matching(subject):
    me, recvs, msgs = subject
    post = me.post_recv
    for req in recvs:
        post(req)
    incoming = me.incoming
    for msg in msgs:
        incoming(msg)


@_register
def bench_matching(quick: bool = False) -> dict:
    from repro.mpi.matching import LinearMatchingEngine, MatchingEngine

    sources, tags = (16, 8) if quick else (64, 48)
    reps = 2 if quick else 5
    ops = 2 * sources * tags  # posts + deliveries
    linear_s = _best_of(reps,
                        lambda: _matching_ops(LinearMatchingEngine, sources, tags),
                        _run_matching)
    indexed_s = _best_of(reps,
                         lambda: _matching_ops(MatchingEngine, sources, tags),
                         _run_matching)
    return {
        "name": "matching",
        "unit": "matches/s",
        "sources": sources,
        "tags": tags,
        "operations": ops,
        "legacy_wall_s": linear_s,
        "wall_s": indexed_s,
        "legacy_matches_per_s": ops / linear_s,
        "throughput": ops / indexed_s,
        "speedup": linear_s / indexed_s,
        "quick": quick,
    }


# ----------------------------------------------------------------------
# nic
# ----------------------------------------------------------------------
def _nic_cluster(n_msgs: int):
    from repro.harness.machines import MARENOSTRUM4
    from repro.network.message import Message
    from repro.network.topology import Cluster

    eng = Engine()
    cluster = Cluster(eng, 2, MARENOSTRUM4.fabric, rng=None)
    cluster.place_ranks_block(2, 1)
    delivered = []
    cluster.register_endpoint(1, "bench", lambda msg: delivered.append(msg.uid))
    msgs = [Message(src_rank=0, dst_rank=1, protocol="bench", kind="data",
                    nbytes=64, meta={"i": i}) for i in range(n_msgs)]
    return cluster, eng, msgs, delivered


def _run_nic(subject):
    cluster, eng, msgs, delivered = subject
    send = cluster.send
    for msg in msgs:
        send(msg)
    eng.run()
    assert len(delivered) == len(msgs)


def _run_nic_batch(subject):
    cluster, eng, msgs, delivered = subject
    cluster.send_batch(msgs)
    eng.run()
    assert len(delivered) == len(msgs)


@_register
def bench_nic(quick: bool = False) -> dict:
    """Batched (``Cluster.send_batch`` + ``schedule_batch``) vs. per-message
    scalar sends, rep-interleaved on identical message streams. The
    in-run scalar measurement is the baseline for the host-independent
    ``speedup`` ratio; the bit-identity of the two paths is asserted on
    an untimed pass (simulated clock, delivery count, transport stats)."""
    n_msgs = 2_000 if quick else 50_000
    reps = 2 if quick else 5
    scalar_s, batch_s = _best_of_pair(
        reps,
        lambda: _nic_cluster(n_msgs), _run_nic,
        lambda: _nic_cluster(n_msgs), _run_nic_batch,
    )
    # untimed equivalence pass: the batched wire path must be observably
    # identical to the scalar loop (same simulated times and stats)
    sc, se, sm, sd = _nic_cluster(n_msgs)
    _run_nic((sc, se, sm, sd))
    bc, be, bm, bd = _nic_cluster(n_msgs)
    _run_nic_batch((bc, be, bm, bd))
    assert be.now == se.now, (be.now, se.now)
    assert be.event_count == se.event_count
    assert len(bd) == len(sd)
    assert bc.stats.total_transit_time == sc.stats.total_transit_time
    assert bc.stats.bytes == sc.stats.bytes
    return {
        "name": "nic",
        "unit": "messages/s",
        "messages": n_msgs,
        "events_fired": be.event_count,
        "legacy_wall_s": scalar_s,
        "wall_s": batch_s,
        "legacy_messages_per_s": n_msgs / scalar_s,
        "throughput": n_msgs / batch_s,
        "speedup": scalar_s / batch_s,
        "quick": quick,
    }


# ----------------------------------------------------------------------
# gs
# ----------------------------------------------------------------------
@_register
def bench_gs(quick: bool = False) -> dict:
    from repro.apps.gauss_seidel.common import GSParams
    from repro.apps.gauss_seidel.variants import make_storages, tampi_main
    from repro.harness.machines import MARENOSTRUM4
    from repro.harness.runner import JobSpec, build_job

    if quick:
        machine = MARENOSTRUM4.with_cores(2)
        params = GSParams(rows=64, cols=256, timesteps=3, block_size=32,
                          compute_data=False)
        n_nodes = 2
    else:
        machine = MARENOSTRUM4.with_cores(4)
        params = GSParams(rows=256, cols=2048, timesteps=10, block_size=64,
                          compute_data=False)
        n_nodes = 4
    spec = JobSpec(machine=machine, n_nodes=n_nodes, variant="tampi")
    job = build_job(spec)
    storages = make_storages(job, params)
    procs = [tampi_main(job, params, st) for st in storages]
    t0 = time.perf_counter()
    sim_time = job.run(procs)
    wall = time.perf_counter() - t0
    events = job.engine.event_count
    return {
        "name": "gs",
        "unit": "events/s",
        "variant": spec.variant,
        "n_nodes": n_nodes,
        "rows": params.rows,
        "cols": params.cols,
        "timesteps": params.timesteps,
        "block_size": params.block_size,
        "events_fired": events,
        "wall_s": wall,
        "throughput": events / wall,
        "sim_time_s": sim_time,
        "gupdates_per_s": params.gupdates(sim_time),
        "quick": quick,
    }


# ----------------------------------------------------------------------
# sweep (parallel execution + cache, repro.harness.parallel)
# ----------------------------------------------------------------------
@_register
def bench_sweep(quick: bool = False, workers: int = 2) -> dict:
    """A fig-09-style grid (variant × nodes) through the sweep layer:
    serial vs ``workers``-process wall time (asserting identical results,
    and — on machines with at least two cores — a wall-clock win) and a
    cold/warm pass through the on-disk result cache (asserting the warm
    re-run executes zero jobs)."""
    import tempfile

    from repro.apps.gauss_seidel.common import GSParams
    from repro.apps.gauss_seidel.runner import run_gauss_seidel
    from repro.harness.machines import MARENOSTRUM4
    from repro.harness.parallel import ResultCache, SweepExecutor, SweepPoint
    from repro.harness.runner import JobSpec

    machine = MARENOSTRUM4.with_cores(4)
    if quick:
        params = GSParams(rows=128, cols=512, timesteps=4, block_size=64,
                          compute_data=False)
        nodes = [1, 2]
    else:
        params = GSParams(rows=512, cols=4096, timesteps=10, block_size=128,
                          compute_data=False)
        nodes = [2, 4]
    variants = ("mpi", "tampi", "tagaspi")
    points = [
        SweepPoint(run_gauss_seidel,
                   JobSpec(machine=machine, n_nodes=n, variant=v,
                           poll_period_us=50),
                   params, label=(v, n))
        for n in nodes for v in variants
    ]

    t0 = time.perf_counter()
    serial = SweepExecutor(workers=1).map(points)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = SweepExecutor(workers=workers).map(points)
    parallel_wall = time.perf_counter() - t0
    assert serial == parallel, "parallel sweep diverged from the serial path"
    cpus = os.cpu_count() or 1
    if cpus >= 2 and workers >= 2 and not quick:
        assert serial_wall > parallel_wall, (
            f"no sweep speedup on {cpus} cores: serial {serial_wall:.2f}s "
            f"vs {workers} workers {parallel_wall:.2f}s")

    with tempfile.TemporaryDirectory() as d:
        cold_ex = SweepExecutor(workers=workers, cache=ResultCache(d))
        cold = cold_ex.map(points)
        warm_ex = SweepExecutor(workers=workers, cache=ResultCache(d))
        t0 = time.perf_counter()
        warm = warm_ex.map(points)
        warm_wall = time.perf_counter() - t0
        assert warm_ex.executed_points == 0, "warm cache re-ran a job"
        assert cold == serial and warm == serial, "cache round-trip diverged"
        cold_stats = cold_ex.stats()
        warm_stats = warm_ex.stats()

    return {
        "name": "sweep",
        "unit": "points/s",
        "points": len(points),
        "workers": workers,
        "variants": list(variants),
        "nodes": nodes,
        "rows": params.rows,
        "cols": params.cols,
        "timesteps": params.timesteps,
        "cpu_count": cpus,
        "serial_wall_s": serial_wall,
        "wall_s": parallel_wall,
        "warm_cache_wall_s": warm_wall,
        "throughput": len(points) / parallel_wall,
        "speedup": serial_wall / parallel_wall,
        "cache_speedup": serial_wall / warm_wall,
        "cold_cache": cold_stats,
        "warm_cache": warm_stats,
        "quick": quick,
    }


# ----------------------------------------------------------------------
# analysis (correctness-checker overhead, repro.analysis)
# ----------------------------------------------------------------------
_CHECKERS = ("races", "deadlock", "resources")


@_register
def bench_analysis(quick: bool = False) -> dict:
    """The cost of the correctness-analysis subsystem on a real job.

    Times the same Gauss–Seidel tagaspi point (the variant exercising
    every hook family: GASPI submissions, notifications, tasks, messages)
    with checking off, ``check="report"``, and ``check="strict"``. Every
    overhead ratio is the median over ``reps`` (>= 5) checked/unchecked
    pairs run back to back — the job lasts tens of milliseconds, and one
    side measured after the other reads the warm-up as a checker
    *speedup*; the ``wall_*`` fields stay min-of-``reps``. Asserts the
    bit-identity contract on the fly:
    every mode must produce the *same simulated time*, and the strict run
    must carry zero error findings. Also times the static determinism
    lint over ``src/`` (the CI gate's other half)."""
    from repro.analysis.lint import lint_paths
    from repro.apps.gauss_seidel.common import GSParams
    from repro.apps.gauss_seidel.variants import make_storages, tagaspi_main
    from repro.harness.machines import MARENOSTRUM4
    from repro.harness.runner import JobSpec, build_job

    if quick:
        machine = MARENOSTRUM4.with_cores(2)
        params = GSParams(rows=64, cols=256, timesteps=3, block_size=32,
                          compute_data=False)
        n_nodes, reps = 2, 5
    else:
        machine = MARENOSTRUM4.with_cores(4)
        params = GSParams(rows=128, cols=1024, timesteps=6, block_size=64,
                          compute_data=False)
        n_nodes, reps = 2, 7

    from repro.analysis import AnalysisPipeline

    sim_times: Dict[str, float] = {}
    events: Dict[str, int] = {}

    def attach(job, **checkers):
        """Manual pipeline attachment (mirrors Job.__init__) so single
        checkers can be costed in isolation."""
        pl = AnalysisPipeline(**checkers)
        pl.install(job.engine)
        pl.attach_cluster(job.cluster)
        if job.gaspi is not None:
            pl.attach_gaspi(job.gaspi)
        for t in job.tagaspi:
            pl.attach_tagaspi(t)
        for rt in job.runtimes:
            pl.attach_runtime(rt)
        return pl

    def point(label, check=None, checkers=None):
        def build():
            spec = JobSpec(machine=machine, n_nodes=n_nodes,
                           variant="tagaspi", check=check)
            job = build_job(spec)
            if checkers is not None:
                job.analysis = attach(job, **checkers)
            procs = [tagaspi_main(job, params, st)
                     for st in make_storages(job, params)]
            return job, procs

        def run(subject):
            job, procs = subject
            sim_times[label] = job.run(procs)
            events[label] = job.engine.event_count
            if job.analysis is not None:
                assert not job.analysis.findings, job.analysis.report()

        return build, run

    off = point("off")
    wall_off = float("inf")
    walls: Dict[str, float] = {}
    overhead: Dict[str, float] = {}
    for label, kwargs in (
            ("report", {"check": "report"}), ("strict", {"check": "strict"}),
            *((name, {"checkers": {c: c == name for c in _CHECKERS}})
              for name in _CHECKERS)):
        off_s, on_s = _pairs(reps, *off, *point(label, **kwargs))
        wall_off = min(wall_off, *off_s)
        walls[label] = min(on_s)
        overhead[label] = statistics.median(
            on / base for base, on in zip(off_s, on_s))
    wall_report, wall_strict = walls["report"], walls["strict"]
    assert len(set(sim_times.values())) == 1, (
        f"checked runs perturbed the simulation: {sim_times}")

    t0 = time.perf_counter()
    lint_findings = lint_paths(["src"])
    lint_wall = time.perf_counter() - t0
    assert not lint_findings, "\n".join(str(f) for f in lint_findings)

    from repro.analysis.static import verify_paths

    t0 = time.perf_counter()
    verify_findings = verify_paths(["src"])
    verify_wall = time.perf_counter() - t0
    assert not verify_findings, "\n".join(str(f) for f in verify_findings)

    return {
        "name": "analysis",
        "unit": "events/s",
        "variant": "tagaspi",
        "n_nodes": n_nodes,
        "rows": params.rows,
        "cols": params.cols,
        "timesteps": params.timesteps,
        "events_fired": events["off"],
        "sim_time_s": sim_times["off"],
        "wall_off_s": wall_off,
        "wall_report_s": wall_report,
        "wall_strict_s": wall_strict,
        "wall_s": wall_report,
        "throughput": events["off"] / wall_off,
        "checked_throughput": events["report"] / wall_report,
        "overhead_report": overhead["report"],
        "overhead_strict": overhead["strict"],
        "per_checker_wall_s": {k: walls[k] for k in _CHECKERS},
        "per_checker_overhead": {k: overhead[k] for k in _CHECKERS},
        "lint_wall_s": lint_wall,
        "verify_wall_s": verify_wall,
        "quick": quick,
    }


# ----------------------------------------------------------------------
# static verifier
# ----------------------------------------------------------------------
@_register
def bench_verify(quick: bool = False) -> dict:
    """Cost of the CFG/dataflow protocol verifier on the shipped tree.

    Times ``verify_paths`` over the same trees the CI gate checks
    (``src examples benchmarks tests``, minus the seeded bad examples),
    min-of-``reps``, and separately over ``src/`` alone so the number is
    comparable with ``bench_analysis``'s ``lint_wall_s``. Asserts the
    acceptance contract on the fly: the gated trees are clean and every
    seeded example under ``examples/static/`` is flagged by its rule.
    ``throughput`` (gate) is files verified per second on the full gated
    sweep."""
    from repro.analysis.static import verify_paths
    from repro.analysis.static.verify import iter_py_files

    gate_paths = ["src", "examples", "benchmarks", "tests"]
    exclude = ["examples/static"]
    reps = 2 if quick else 5

    n_files = len(iter_py_files(gate_paths)) - len(iter_py_files(exclude))

    def run_gate(_):
        fs = verify_paths(gate_paths, exclude=exclude)
        assert not fs, "\n".join(str(f) for f in fs)

    def run_src(_):
        fs = verify_paths(["src"])
        assert not fs, "\n".join(str(f) for f in fs)

    wall_gate = _best_of(reps, lambda: None, run_gate)
    wall_src = _best_of(reps, lambda: None, run_src)

    seeded = verify_paths(["examples/static"])
    seeded_rules = sorted({f.rule for f in seeded})
    assert seeded_rules == ["blocking-in-task", "notification-slot-reuse",
                            "unpaired-epoch", "unwaited-request"], seeded

    return {
        "name": "verify",
        "unit": "files/s",
        "paths": gate_paths,
        "exclude": exclude,
        "n_files": n_files,
        "n_rules": 4,
        "wall_gate_s": wall_gate,
        "wall_src_s": wall_src,
        "wall_s": wall_gate,
        "throughput": n_files / wall_gate,
        "seeded_findings": len(seeded),
        "seeded_rules": seeded_rules,
        "quick": quick,
    }


# ----------------------------------------------------------------------
# collectives
# ----------------------------------------------------------------------
@_register
def bench_collectives(quick: bool = False) -> dict:
    """Head-to-head of the three collective backends (docs/collectives.md).

    Part 1 times a large-message allreduce per backend at every rank
    count: the ``speedup`` metric (two-sided tree simulated time over the
    GASPI notification ring's, largest rank count) is the gate number and
    is asserted > 1 — the bandwidth argument the package exists to show.
    Part 2 runs the CG mini-app (cost-model mode) through the harness
    ``backend=`` axis at every rank count; ``throughput`` is the GASPI
    CG figure at the largest scale. Simulated time is the measured
    quantity throughout, so the comparison is host-independent.
    """
    import numpy as np

    from repro.apps.cg import CGParams, run_cg
    from repro.collectives import make_collectives
    from repro.harness.machines import MARENOSTRUM4
    from repro.harness.runner import JobSpec, build_job
    from repro.harness.sweep import run_variants

    backends = ("twosided", "rma", "gaspi")
    if quick:
        cores, node_counts = 2, (1, 2, 4, 8)     # 2..16 ranks
        m, reps = 65536, 1
        cg_params = CGParams(n=2048, iterations=3, compute_data=False)
    else:
        cores, node_counts = 4, (1, 2, 4, 8)     # 4..32 ranks
        m, reps = 65536, 2
        cg_params = CGParams(n=4096, iterations=8, compute_data=False)
    machine = MARENOSTRUM4.with_cores(cores)

    def allreduce_time(backend: str, n_nodes: int) -> float:
        spec = JobSpec(machine=machine, n_nodes=n_nodes, variant="mpi",
                       backend=backend)
        job = build_job(spec)
        colls = make_collectives(job, max_reduce_elems=m)
        data = np.ones(m)

        def factory(r, drv):
            def main(drv):
                for _ in range(reps):
                    yield from colls[r].allreduce(data)
            return drv.spawn(main)

        sim = job.run([factory(r, job.drivers[r])
                       for r in range(spec.n_ranks)])
        return sim / reps

    t0 = time.perf_counter()
    allreduce = {b: {str(cores * nn): allreduce_time(b, nn)
                     for nn in node_counts} for b in backends}
    largest = str(cores * node_counts[-1])
    speedup = allreduce["twosided"][largest] / allreduce["gaspi"][largest]
    assert speedup > 1.0, (
        f"gaspi notification allreduce must beat the two-sided tree for "
        f"large messages ({m} elems, {largest} ranks): {allreduce}")

    cg: Dict[str, Dict[str, float]] = {b: {} for b in backends}
    for nn in node_counts:
        res = run_variants(run_cg, machine, nn, cg_params,
                           variants=("mpi",), backend=list(backends))
        for b in backends:
            cg[b][str(cores * nn)] = res["mpi"][b].throughput
    wall = time.perf_counter() - t0

    return {
        "name": "collectives",
        "unit": "GDoF-iters/s (cg, gaspi)",
        "backends": list(backends),
        "rank_counts": [cores * nn for nn in node_counts],
        "allreduce_elems": m,
        "allreduce_sim_s": allreduce,
        "speedup": speedup,
        "cg_n": cg_params.n,
        "cg_iterations": cg_params.iterations,
        "cg_throughput": cg,
        "throughput": cg["gaspi"][largest],
        "wall_s": wall,
        "quick": quick,
    }
