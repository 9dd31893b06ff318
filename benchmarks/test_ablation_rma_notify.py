"""Ablation A3 (§III): MPI-RMA notification pattern vs GASPI write_notify.

The paper's §III argues that notifying remote completion with standard
MPI RMA requires ``Put + Win_flush + empty Send`` — the flush costs an
extra acknowledgement round trip (Belli & Hoefler) and the notification is
a full two-sided message — whereas GASPI's ``write_notify`` delivers data
and notification in one one-sided operation. This microbenchmark measures
the producer→consumer notification latency of both patterns across
message sizes.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit, run_once
from repro.gaspi import GaspiContext
from repro.harness import format_series
from repro.mpi import MPIContext, MPIProcDriver, Window
from repro.network import Cluster, INFINIBAND
from repro.sim import Engine

SIZES = [64, 1024, 16384, 131072]  # elements (8B each)
ITERS = 20


def _mpi_rma_pattern(n):
    eng = Engine()
    cl = Cluster(eng, 2, INFINIBAND)
    cl.place_ranks_block(2, 1)
    mpi = MPIContext(cl)
    win = Window.create(mpi, {0: np.zeros(1), 1: np.zeros(n)})
    data = np.ones(n)

    def origin(drv):
        for _ in range(ITERS):
            win.put(0, data, target=1)
            yield from win.flush(0, 1)  # remote completion (extra RTT)
            req = yield from drv.isend(None, 1, tag=1)  # the notification
            yield from drv.wait(req)
            yield from drv.sync()  # the next put enters the bare window

    def target(drv):
        for _ in range(ITERS):
            req = yield from drv.irecv(None, 0, tag=1)
            yield from drv.wait(req)

    p0 = MPIProcDriver(mpi.rank(0)).spawn(origin)
    p1 = MPIProcDriver(mpi.rank(1)).spawn(target)
    while not (p0.triggered and p1.triggered):
        eng.step()
    return eng.now / ITERS


def _gaspi_pattern(n):
    eng = Engine()
    cl = Cluster(eng, 2, INFINIBAND)
    cl.place_ranks_block(2, 1)
    g = GaspiContext(cl)
    g.rank(0).segment_register(0, np.ones(n))
    g.rank(1).segment_register(0, np.zeros(n))

    def consumer():
        for i in range(ITERS):
            # one notification id per iteration: the §IV-B overwrite hazard
            # does not apply when ids rotate faster than the producer runs
            yield from g.rank(1).notify_waitsome(0, i % 64, 1)

    def producer():
        for i in range(ITERS):
            g.rank(0).write_notify(0, 0, 1, 0, 0, n, notif_id=i % 64,
                                   notif_val=i + 1, queue=0)
            yield from g.rank(0).wait(0)  # local completion pacing

    pc = eng.process(consumer())
    pp = eng.process(producer())
    while not (pc.triggered and pp.triggered):
        eng.step()
    return eng.now / ITERS


def _sweep():
    return (
        {n: _mpi_rma_pattern(n) * 1e6 for n in SIZES},
        {n: _gaspi_pattern(n) * 1e6 for n in SIZES},
    )


@pytest.mark.benchmark(group="ablation")
def test_rma_notification_patterns(benchmark):
    mpi_lat, gaspi_lat = run_once(benchmark, _sweep)
    emit(format_series(
        "A3: producer->consumer notified-delivery latency (us/iter), InfiniBand",
        "elements",
        {"MPI Put+flush+Send (§III)": mpi_lat, "GASPI write_notify": gaspi_lat},
        SIZES))
    for n in SIZES:
        emit(f"  {n:>7} elems: GASPI advantage {mpi_lat[n]/gaspi_lat[n]:.2f}x")
        assert gaspi_lat[n] < mpi_lat[n]
    # the paper: the flush round trip dominates for small messages and
    # becomes negligible for large ones
    assert mpi_lat[64] / gaspi_lat[64] > mpi_lat[131072] / gaspi_lat[131072]
