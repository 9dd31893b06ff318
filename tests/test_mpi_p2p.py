"""Unit tests for two-sided MPI: matching, protocols, completion."""

import weakref

import numpy as np
import pytest

from repro.sim import Engine
from repro.network import Cluster, OMNIPATH
from repro.network.message import Message
from repro.mpi import (
    MPIContext,
    MPIProcDriver,
    MPIError,
    ANY_SOURCE,
    ANY_TAG,
)
from repro.collectives import TwoSidedCollectives
from repro.mpi.matching import MatchingEngine
from repro.mpi.requests import Request
from tests.conftest import run_all


def make_ctx(n_ranks=2, ranks_per_node=1, fabric=OMNIPATH):
    eng = Engine()
    nodes = (n_ranks + ranks_per_node - 1) // ranks_per_node
    cl = Cluster(eng, nodes, fabric)
    cl.place_ranks_block(n_ranks, ranks_per_node)
    return eng, MPIContext(cl)


class TestBasicTransfer:
    @pytest.mark.parametrize("n", [10, 100_000])  # eager and rendezvous sizes
    def test_send_recv_moves_data(self, n):
        eng, mpi = make_ctx()
        out = {}

        def sender(drv):
            data = np.arange(n, dtype=np.float64)
            req = yield from drv.isend(data, 1, tag=3)
            yield from drv.wait(req)

        def receiver(drv):
            buf = np.zeros(n, dtype=np.float64)
            req = yield from drv.irecv(buf, 0, tag=3)
            yield from drv.wait(req)
            out["data"] = buf.copy()

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert np.array_equal(out["data"], np.arange(n, dtype=np.float64))

    def test_zero_byte_message(self):
        eng, mpi = make_ctx()
        done = []

        def sender(drv):
            req = yield from drv.isend(None, 1, tag=0)
            yield from drv.wait(req)

        def receiver(drv):
            req = yield from drv.irecv(None, 0, tag=0)
            yield from drv.wait(req)
            done.append(eng.now)

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert done and done[0] > 0

    def test_eager_send_completes_locally_before_recv_posted(self):
        eng, mpi = make_ctx()
        send_done_t = []

        def sender(drv):
            req = yield from drv.isend(np.ones(4), 1, tag=1)
            yield from drv.wait(req)
            send_done_t.append(eng.now)

        def receiver(drv):
            yield eng.timeout(1.0)  # post the receive very late
            buf = np.zeros(4)
            req = yield from drv.irecv(buf, 0, tag=1)
            yield from drv.wait(req)

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert send_done_t[0] < 0.5  # not blocked on the late receiver

    def test_rendezvous_send_blocks_until_recv_posted(self):
        eng, mpi = make_ctx()
        send_done_t = []
        big = np.ones(100_000)

        def sender(drv):
            req = yield from drv.isend(big, 1, tag=1)
            yield from drv.wait(req)
            send_done_t.append(eng.now)

        def receiver(drv):
            yield eng.timeout(1.0)
            buf = np.zeros(100_000)
            req = yield from drv.irecv(buf, 0, tag=1)
            yield from drv.wait(req)

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert send_done_t[0] > 1.0  # waited for the CTS


class TestMatchingSemantics:
    def test_tag_selectivity(self):
        eng, mpi = make_ctx()
        out = {}

        def sender(drv):
            r1 = yield from drv.isend(np.array([1.0]), 1, tag=10)
            r2 = yield from drv.isend(np.array([2.0]), 1, tag=20)
            yield from drv.waitall([r1, r2])

        def receiver(drv):
            b20, b10 = np.zeros(1), np.zeros(1)
            r20 = yield from drv.irecv(b20, 0, tag=20)
            r10 = yield from drv.irecv(b10, 0, tag=10)
            yield from drv.waitall([r20, r10])
            out["b10"], out["b20"] = b10[0], b20[0]

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert out == {"b10": 1.0, "b20": 2.0}

    def test_non_overtaking_same_tag(self):
        eng, mpi = make_ctx()
        out = []

        def sender(drv):
            reqs = []
            for i in range(5):
                r = yield from drv.isend(np.array([float(i)]), 1, tag=7)
                reqs.append(r)
            yield from drv.waitall(reqs)

        def receiver(drv):
            for _ in range(5):
                buf = np.zeros(1)
                r = yield from drv.irecv(buf, 0, tag=7)
                yield from drv.wait(r)
                out.append(buf[0])

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert out == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_any_source_any_tag(self):
        eng, mpi = make_ctx(n_ranks=3)
        out = []

        def sender(drv):
            r = yield from drv.isend(np.array([float(drv.mpi.rank)]), 2, tag=drv.mpi.rank)
            yield from drv.wait(r)

        def receiver(drv):
            for _ in range(2):
                buf = np.zeros(1)
                r = yield from drv.irecv(buf, ANY_SOURCE, ANY_TAG)
                yield from drv.wait(r)
                out.append(buf[0])

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(sender),
                      MPIProcDriver(mpi.rank(2)).spawn(receiver)])
        assert sorted(out) == [0.0, 1.0]

    def test_size_mismatch_raises(self):
        eng, mpi = make_ctx()

        def sender(drv):
            r = yield from drv.isend(np.ones(8), 1, tag=1)
            yield from drv.wait(r)

        def receiver(drv):
            buf = np.zeros(4)
            r = yield from drv.irecv(buf, 0, tag=1)
            yield from drv.wait(r)

        with pytest.raises(MPIError, match="mismatch"):
            run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                          MPIProcDriver(mpi.rank(1)).spawn(receiver)])

    def test_negative_tag_rejected(self):
        _eng, mpi = make_ctx()
        with pytest.raises(MPIError):
            mpi.rank(0).isend(np.ones(1), 1, tag=-5)

    def test_peer_out_of_range(self):
        _eng, mpi = make_ctx()
        with pytest.raises(MPIError):
            mpi.rank(0).isend(np.ones(1), 9, tag=0)

    @pytest.mark.parametrize("peer,tag", [(0, 5), (ANY_SOURCE, 5),
                                          (0, ANY_TAG),
                                          (ANY_SOURCE, ANY_TAG)],
                             ids=["bucket", "any-source", "any-tag", "any-any"])
    def test_match_releases_message(self, peer, tag):
        """The unexpected queue holds live messages only: once a receive
        matches a buffered message, the matcher keeps no reference to it or
        its payload, on the bucket path and on the wildcard walk alike."""
        eng = Engine()
        me = MatchingEngine()
        payload = np.arange(16.0)
        payload_ref = weakref.ref(payload)
        assert me.incoming(Message(0, 1, "mpi", "eager", payload.nbytes,
                                   payload, meta={"tag": 5})) is None
        del payload
        other = Message(2, 1, "mpi", "eager", 8, np.ones(1), meta={"tag": 7})
        assert me.incoming(other) is None
        assert me.unexpected_depth == 2

        got = me.post_recv(Request(eng, "recv", 1, peer, tag, None, 128))
        assert got is not None and got.src_rank == 0
        assert me.unexpected_depth == 1
        del got
        assert payload_ref() is None

        # the message still queued is untouched
        assert me.post_recv(Request(eng, "recv", 1, 2, 7, None, 8)) is other
        assert me.unexpected_depth == 0


class TestCompletionAPIs:
    def test_test_and_testsome(self):
        eng, mpi = make_ctx()
        log = {}

        def sender(drv):
            reqs = []
            for i in range(3):
                r = yield from drv.isend(np.array([float(i)]), 1, tag=i)
                reqs.append(r)
            # immediately after posting, likely nothing has completed
            _end, _wait, log["early"] = drv.mpi.testsome(reqs)
            yield eng.timeout(1.0)
            end, wait, log["late"] = drv.mpi.testsome(reqs)
            # the lock is free: the call ends one hold after the engine's now
            assert wait == 0.0 and end > eng.now
            log["test"] = drv.mpi.test(reqs[0])

        def receiver(drv):
            for i in range(3):
                buf = np.zeros(1)
                r = yield from drv.irecv(buf, 0, tag=i)
                yield from drv.wait(r)

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert log["late"] == [0, 1, 2]
        assert log["test"] is True

    def test_lock_time_accounting(self):
        eng, mpi = make_ctx()

        def sender(drv):
            r = yield from drv.isend(np.ones(1), 1, tag=0)
            yield from drv.wait(r)

        def receiver(drv):
            buf = np.zeros(1)
            r = yield from drv.irecv(buf, 0, tag=0)
            yield from drv.wait(r)

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert mpi.total_time_in_mpi() > 0
        assert mpi.rank(0).lock.calls >= 2  # isend + wait


class TestCollectives:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_allreduce_sum(self, n):
        eng, mpi = make_ctx(n_ranks=n, ranks_per_node=2)
        vals = {}

        def main(drv):
            yield from drv.sync()
            v = yield from TwoSidedCollectives(drv.mpi).allreduce(
                np.array([float(drv.mpi.rank + 1)]))
            vals[drv.mpi.rank] = float(v[0])

        run_all(eng, [MPIProcDriver(mpi.rank(r)).spawn(main) for r in range(n)])
        assert vals == {r: n * (n + 1) / 2 for r in range(n)}

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_barrier_synchronizes(self, n):
        eng, mpi = make_ctx(n_ranks=n, ranks_per_node=2)
        after = {}

        def main(drv):
            # stagger arrivals
            yield eng.timeout(0.01 * drv.mpi.rank)
            yield from drv.barrier()
            after[drv.mpi.rank] = eng.now

        run_all(eng, [MPIProcDriver(mpi.rank(r)).spawn(main) for r in range(n)])
        latest_arrival = 0.01 * (n - 1)
        assert all(t >= latest_arrival for t in after.values())

    def test_two_consecutive_collectives_do_not_cross_match(self):
        eng, mpi = make_ctx(n_ranks=4, ranks_per_node=2)
        vals = {}

        def main(drv):
            yield from drv.sync()
            coll = TwoSidedCollectives(drv.mpi)
            a = yield from coll.allreduce(np.array([1.0]))
            b = yield from coll.allreduce(np.array([10.0]))
            vals[drv.mpi.rank] = (float(a[0]), float(b[0]))

        run_all(eng, [MPIProcDriver(mpi.rank(r)).spawn(main) for r in range(4)])
        assert all(v == (4.0, 40.0) for v in vals.values())


def _spec(n_nodes=6, seed=3, **kw):
    from repro.harness import JobSpec, MARENOSTRUM4

    kw.setdefault("variant", "mpi")
    return JobSpec(machine=MARENOSTRUM4.with_cores(4), n_nodes=n_nodes,
                   seed=seed, **kw)


class TestIsendBatch:
    def test_isend_batch_unit_matches_isend(self):
        """A 1-message batch reproduces a plain isend bit-for-bit (same
        grant arithmetic), so routing the streaming writer through the
        batch entry point changed nothing."""
        import numpy as np

        from repro.harness.runner import build_job

        def run(use_batch):
            job = build_job(_spec(n_nodes=2))
            drv0, drv1 = job.drivers[0], job.drivers[1]
            out = {}

            def sender(drv):
                buf = np.arange(8.0)
                if use_batch:
                    reqs = yield from drv.isend_batch([buf], 1, [5])
                else:
                    reqs = [(yield from drv.isend(buf, 1, 5))]
                yield from drv.waitall(reqs)
                out["send_done"] = drv.engine.now

            def receiver(drv):
                buf = np.empty(8)
                req = yield from drv.irecv(buf, 0, 5)
                yield from drv.wait(req)
                out["recv_done"] = drv.engine.now

            sim = job.run([drv0.spawn(sender), drv1.spawn(receiver)])
            return sim, out["send_done"], out["recv_done"]

        assert run(True) == run(False)

    def test_isend_batch_rendezvous_falls_back(self):
        """Oversized messages cannot batch; the call degrades to plain
        per-message isends and the payload still arrives intact."""
        import numpy as np

        from repro.harness.runner import build_job

        job = build_job(_spec(n_nodes=2))
        big = np.arange(4096.0)  # 32 KiB > eager threshold
        got = np.empty_like(big)

        def sender(drv):
            reqs = yield from drv.isend_batch([big, big[:4]], 1, [1, 2])
            assert len(reqs) == 2
            yield from drv.waitall(reqs)

        def receiver(drv):
            small = np.empty(4)
            r1 = yield from drv.irecv(got, 0, 1)
            r2 = yield from drv.irecv(small, 0, 2)
            yield from drv.wait(r1)
            yield from drv.wait(r2)

        job.run([job.drivers[0].spawn(sender), job.drivers[1].spawn(receiver)])
        assert (got == big).all()
