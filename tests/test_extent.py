"""Extent: a cost-model buffer with a size and a dtype but no contents.

The unit tests pin the type. The protocol tests send Extents down every MPI
and GASPI path that moves a buffer: each path carries the Extent itself, not
a copy, costs exactly what the numpy twin of the same size costs, and never
matches an array. The differential oracle runs the model-mode apps once as
shipped and once with their Extents replaced by the ``np.zeros`` buffers
they used to allocate: contents never change timing.
"""

import json

import numpy as np
import pytest

import repro.apps.gauss_seidel.runner as gs_runner
import repro.apps.gauss_seidel.storage as gs_storage
import repro.apps.streaming.runner as st_runner
import repro.apps.streaming.variants as st_variants
from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.apps.streaming import StreamingParams, run_streaming
from repro.gaspi import GaspiContext, GaspiError
from repro.gaspi.segments import Segment
from repro.harness import JobSpec, MARENOSTRUM4, build_job
from repro.mpi import MPIContext, MPIError, MPIProcDriver
from repro.network import INFINIBAND, OMNIPATH, Cluster, Extent
from repro.sim import Engine
from repro.trace import Tracer, chrome_trace
from tests.conftest import run_all

MACH4 = MARENOSTRUM4.with_cores(4)


class TestExtent:
    def test_size_dtype_nbytes_shape(self):
        e = Extent(10)
        assert (e.size, e.dtype, e.nbytes, e.shape) == (
            10, np.float64, 80, (10,))
        assert Extent(6, np.int32).nbytes == 24

    def test_slices_are_extents_of_the_slice_length(self):
        e = Extent(10, np.float32)
        for key, size in [(slice(2, 5), 3), (slice(8, 20), 2),
                          (slice(None, None, 2), 5), (slice(None), 10),
                          (slice(-3, None), 3), (slice(5, 2), 0)]:
            part = e[key]
            assert isinstance(part, Extent)
            assert (part.size, part.dtype) == (size, np.float32)

    @pytest.mark.parametrize("key", [0, (slice(None),), [1, 2]],
                             ids=["int", "tuple", "list"])
    def test_only_slices_index(self, key):
        with pytest.raises(TypeError, match="only supports slicing"):
            Extent(4)[key]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Extent(-1)

    def test_immutable(self):
        e = Extent(4)
        with pytest.raises(AttributeError):
            e.size = 8

    def test_slice_assignment_takes_only_a_matching_extent(self):
        e = Extent(8)
        e[2:6] = Extent(4)
        e[:] = Extent(8)
        with pytest.raises(TypeError):
            e[:] = np.zeros(8)
        with pytest.raises(ValueError):
            e[:] = Extent(7)
        with pytest.raises(ValueError):
            e[:] = Extent(8, np.float32)
        with pytest.raises(ValueError):
            e[:] = Extent(16, np.float32)  # same bytes, other dtype
        with pytest.raises(TypeError):
            e[0] = Extent(1)

    def test_has_no_contents_to_read(self):
        with pytest.raises(TypeError, match="no contents"):
            np.asarray(Extent(4))
        with pytest.raises(TypeError, match="no contents"):
            np.zeros(4)[:] = Extent(4)


# ----------------------------------------------------------------------
# MPI
# ----------------------------------------------------------------------

def _mpi_pair():
    """Two ranks on two nodes; every message the cluster sends is kept."""
    eng = Engine()
    cl = Cluster(eng, 2, OMNIPATH)
    cl.place_ranks_block(2, 1)
    sent = []
    send = cl.send

    def keep(msg, *args, **kwargs):
        sent.append(msg)
        return send(msg, *args, **kwargs)

    cl.send = keep  # Cluster.send_batch sends through it too
    return eng, MPIContext(cl), sent


def _exchange(sbufs, rbufs, *, batch=False, recv_delay=0.0):
    """Send ``sbufs`` from rank 0 to rank 1 (tags 0, 1, …) and receive them
    into ``rbufs`` after ``recv_delay``; returns the send and receive
    completion times and the messages sent."""
    eng, mpi, sent = _mpi_pair()
    times = {}

    def sender(drv):
        tags = list(range(len(sbufs)))
        if batch:
            reqs = yield from drv.isend_batch(sbufs, 1, tags)
        else:
            reqs = []
            for buf, tag in zip(sbufs, tags):
                reqs.append((yield from drv.isend(buf, 1, tag)))
        yield from drv.waitall(reqs)
        times["send"] = drv.now

    def receiver(drv):
        if recv_delay:
            yield from drv.compute(recv_delay)
        reqs = []
        for tag, buf in enumerate(rbufs):
            reqs.append((yield from drv.irecv(buf, 0, tag)))
        yield from drv.waitall(reqs)
        times["recv"] = drv.now

    run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                  MPIProcDriver(mpi.rank(1)).spawn(receiver)])
    return (times["send"], times["recv"]), sent


def _arrays(sizes):
    return [np.zeros(n) for n in sizes]


def _extents(sizes):
    return [Extent(n) for n in sizes]


# eager (expected and unexpected), rendezvous (> mpi.eager_threshold,
# 16 KiB), and the batched eager entry point
_PATHS = {
    "eager": dict(sizes=[8, 64], kw={}),
    "unexpected-eager": dict(sizes=[8, 64], kw=dict(recv_delay=1e-3)),
    "rendezvous": dict(sizes=[4096], kw={}),
    "batch": dict(sizes=[8, 16, 32], kw=dict(batch=True)),
}


class TestMPI:
    @pytest.mark.parametrize("path", list(_PATHS))
    def test_extent_travels_as_itself_and_costs_its_array_twin(self, path):
        sizes, kw = _PATHS[path]["sizes"], _PATHS[path]["kw"]
        sbufs = _extents(sizes)
        times, sent = _exchange(sbufs, _extents(sizes), **kw)
        twin_times, twin_sent = _exchange(_arrays(sizes), _arrays(sizes), **kw)
        assert times == twin_times
        assert ([(m.kind, m.nbytes) for m in sent]
                == [(m.kind, m.nbytes) for m in twin_sent])
        carried = [m.payload for m in sent if m.kind in ("eager", "data")]
        assert len(carried) == len(sbufs)
        assert all(p is b for p, b in zip(carried, sbufs))

    def test_isend_from_an_extent_makes_no_array(self):
        _eng, mpi, sent = _mpi_pair()
        buf = Extent(16)
        mpi.rank(0).isend(buf, 1, tag=0)
        (msg,) = sent
        assert msg.payload is buf

    @pytest.mark.parametrize("path", list(_PATHS))
    @pytest.mark.parametrize("send_extent", [True, False],
                             ids=["extent-to-array", "array-to-extent"])
    def test_extent_never_matches_an_array(self, path, send_extent):
        sizes, kw = _PATHS[path]["sizes"], _PATHS[path]["kw"]
        sbufs = _extents(sizes) if send_extent else _arrays(sizes)
        rbufs = _arrays(sizes) if send_extent else _extents(sizes)
        with pytest.raises(MPIError, match="Extent with a numpy buffer"):
            _exchange(sbufs, rbufs, **kw)

    @pytest.mark.parametrize("recv, match", [
        (Extent(9), "size mismatch"),
        (Extent(16, np.float32), "dtype mismatch"),
    ], ids=["size", "dtype"])
    def test_size_and_dtype_must_match(self, recv, match):
        with pytest.raises(MPIError, match=match):
            _exchange([Extent(8)], [recv])


# ----------------------------------------------------------------------
# GASPI
# ----------------------------------------------------------------------

def _gaspi_pair(local, remote):
    eng = Engine()
    cl = Cluster(eng, 2, INFINIBAND)
    cl.place_ranks_block(2, 1)
    sent = []
    send = cl.send

    def keep(msg, *args, **kwargs):
        sent.append(msg)
        return send(msg, *args, **kwargs)

    cl.send = keep
    g = GaspiContext(cl, n_queues=2)
    g.rank(0).segment_register(0, local)
    g.rank(1).segment_register(0, remote)
    return eng, g, sent


class TestGaspi:
    @pytest.mark.parametrize("op", ["write", "write_notify"])
    def test_write_moves_the_extent(self, op):
        def run(make):
            eng, g, sent = _gaspi_pair(make(50), make(100))
            if op == "write":
                g.rank(0).write(0, 10, 1, 0, 40, 30, queue=0)
            else:
                g.rank(0).write_notify(0, 10, 1, 0, 40, 30, notif_id=4,
                                       notif_val=9, queue=0)
            eng.process(g.rank(0).wait(0))
            eng.run()
            return eng.now, g.rank(1).segment(0).notifications, sent

        now, notes, sent = run(Extent)
        assert (now, notes) == run(np.zeros)[:2]
        assert notes == ({4: 9} if op == "write_notify" else {})
        (msg,) = sent
        assert isinstance(msg.payload, Extent)
        assert (msg.payload.size, msg.nbytes) == (30, 30 * 8 + 32)

    def test_read_moves_the_extent(self):
        def run(make):
            eng, g, sent = _gaspi_pair(make(6), make(10))
            g.rank(0).read(0, 0, 1, 0, 4, 6, queue=1, tag=77)
            run_all(eng, [eng.process(g.rank(0).wait(1))])
            return eng.now, sent

        now, sent = run(Extent)
        assert now == run(np.zeros)[0]
        assert [m.kind for m in sent] == ["read_req", "read_resp"]
        assert isinstance(sent[1].payload, Extent)
        assert sent[1].payload.size == 6

    def test_extent_view_is_range_checked(self):
        seg = Segment(0, Extent(4))
        assert seg.view(1, 3).size == 3
        with pytest.raises(GaspiError, match="outside"):
            seg.view(2, 5)
        with pytest.raises(GaspiError, match="outside"):
            seg.view(-1, 2)

    def test_write_out_of_range_rejected(self):
        _eng, g, _sent = _gaspi_pair(Extent(4), Extent(4))
        with pytest.raises(GaspiError, match="outside"):
            g.rank(0).write(0, 2, 1, 0, 0, 5, queue=0)

    def test_segment_backing_must_be_array_or_extent(self):
        with pytest.raises(GaspiError, match="numpy arrays or Extents"):
            Segment(0, [0.0] * 4)

    def test_extent_never_lands_in_an_array_segment(self):
        eng, g, _sent = _gaspi_pair(Extent(8), np.zeros(8))
        g.rank(0).write(0, 0, 1, 0, 0, 8, queue=0)
        with pytest.raises(TypeError, match="no contents"):
            eng.run()


# ----------------------------------------------------------------------
# differential oracle: contents never change timing
# ----------------------------------------------------------------------

def _observed_run(monkeypatch, run, runner, spec, params):
    """Run ``run(spec, params)`` with a recording tracer; returns the result,
    the exported trace, and the checker's findings and warnings."""
    jobs = []

    def keep(*args, **kwargs):
        jobs.append(build_job(*args, **kwargs))
        return jobs[-1]

    monkeypatch.setattr(runner, "build_job", keep)
    tracer = Tracer(progress_every=None)
    res = run(spec, params, tracer=tracer)
    (job,) = jobs
    an = job.analysis
    return (res,
            json.dumps(chrome_trace(tracer), sort_keys=True),
            [repr(f) for f in an.findings],
            [repr(w) for w in an.warnings])


_ORACLE = [
    ("gs", v, GSParams(rows=128, cols=128, timesteps=3, block_size=32,
                       compute_data=False))
    for v in ("mpi", "tampi", "tagaspi")
] + [
    ("streaming", v, StreamingParams(chunks=4, elements_per_chunk=256,
                                     block_size=32, compute_data=False))
    for v in ("mpi", "tampi", "tagaspi")
] + [
    # blocks above mpi.eager_threshold take the rendezvous path
    ("streaming", v, StreamingParams(chunks=2, elements_per_chunk=16384,
                                     block_size=4096, compute_data=False))
    for v in ("mpi", "tampi")
]


@pytest.mark.parametrize(
    "app, variant, params", _ORACLE,
    ids=[f"{a}-{v}-bs{p.block_size}" for a, v, p in _ORACLE])
def test_model_mode_timing_is_independent_of_buffer_contents(
        monkeypatch, app, variant, params):
    """Byte-identical results, counters, traces and findings whether the
    model-mode buffers are Extents or the zero-filled arrays of the same
    size."""
    if app == "gs":
        run, runner, module = run_gauss_seidel, gs_runner, gs_storage
        spec = JobSpec(machine=MACH4, n_nodes=2, variant=variant,
                       poll_period_us=50, seed=5, check="report")
    else:
        run, runner, module = run_streaming, st_runner, st_variants
        spec = JobSpec(machine=MACH4, n_nodes=3, variant=variant,
                       poll_period_us=50, seed=5, check="report")

    shipped = _observed_run(monkeypatch, run, runner, spec, params)
    monkeypatch.setattr(module, "Extent", np.zeros)
    zeros = _observed_run(monkeypatch, run, runner, spec, params)

    res, twin = shipped[0], zeros[0]
    assert res.sim_time == twin.sim_time
    assert res.throughput == twin.throughput
    assert res.extra == twin.extra
    assert res.extra["messages"] > 0 and res.extra["bytes"] > 0
    assert shipped[1:] == zeros[1:]
