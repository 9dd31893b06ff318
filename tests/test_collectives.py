"""Tests for :mod:`repro.collectives`: the three backends agree with
numpy, stay clean under ``check=strict``, and the GASPI eventually
consistent allreduce honors its staleness bound and fence contract."""

import numpy as np
import pytest

from repro.collectives import (
    BACKENDS,
    CollectiveError,
    GaspiCollectives,
    make_collectives,
)
from repro.harness import JobSpec, MARENOSTRUM4, build_job
from repro.mpi import MPIError, Window
from repro.mpi.rma import MPI_MODE_NOPRECEDE, MPI_MODE_NOSUCCEED


def make_job(backend, n_ranks, n_nodes=1, **spec_kwargs):
    mach = MARENOSTRUM4.with_cores(n_ranks // n_nodes)
    spec = JobSpec(machine=mach, n_nodes=n_nodes, variant="mpi",
                   backend=backend, **spec_kwargs)
    return build_job(spec)


def run_ranks(job, body):
    """Spawn ``body(coll, drv) -> generator`` per rank and run the job;
    trailing charges are realized by the driver wrapper."""
    colls = job._test_colls

    def factory(r, drv):
        def main(drv):
            yield from body(colls[r], drv)
            yield from drv.compute(0.0)
        return drv.spawn(main)

    procs = [factory(r, job.drivers[r]) for r in range(job.spec.n_ranks)]
    return job.run(procs)


def build(backend, n_ranks, m=8, n_nodes=1, **kwargs):
    job = make_job(backend, n_ranks, n_nodes=n_nodes,
                   **{k: v for k, v in kwargs.items()
                      if k in ("check", "seed", "faults")})
    job._test_colls = make_collectives(
        job, max_reduce_elems=m, max_gather_elems=m, max_bcast_elems=m,
        **{k: v for k, v in kwargs.items()
           if k in ("ec_rounds", "ec_elems")})
    return job


class TestBackendCorrectness:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 5, 7, 8])
    def test_matches_numpy(self, backend, n_ranks):
        m = 5
        job = build(backend, n_ranks, m=m)
        data = [np.arange(m) * (r + 1) + 0.25 for r in range(n_ranks)]
        root = 2 % n_ranks
        got = {}

        def body(c, drv):
            ar = yield from c.allreduce(data[c.rank])
            mx = yield from c.allreduce(data[c.rank], op=np.maximum)
            bc = yield from c.bcast(
                data[c.rank] if c.rank == root else np.zeros(m), root=root)
            yield from c.barrier()
            ag = yield from c.allgather(data[c.rank])
            got[c.rank] = (ar, mx, bc, ag)

        run_ranks(job, body)
        exp_ar = np.sum(data, axis=0)
        exp_mx = np.max(data, axis=0)
        exp_ag = np.concatenate(data)
        for r in range(n_ranks):
            ar, mx, bc, ag = got[r]
            assert np.allclose(ar, exp_ar)
            assert np.array_equal(mx, exp_mx)
            assert np.array_equal(bc, data[root])
            assert np.array_equal(ag, exp_ag)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scalar_payload_and_every_root(self, backend):
        n = 4
        job = build(backend, n)
        got = {r: [] for r in range(n)}

        def body(c, drv):
            for root in range(n):
                v = yield from c.bcast([float(c.rank + 10)], root=root)
                got[c.rank].append(float(v[0]))
            s = yield from c.allreduce(1.5)
            got[c.rank].append(float(s[0]))

        run_ranks(job, body)
        for r in range(n):
            assert got[r] == [10.0, 11.0, 12.0, 13.0, 1.5 * n]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_check_stays_clean_across_epochs(self, backend):
        """Repeated collectives reuse slots/notification ids; the RMA race
        detector must see no lost updates or notifications."""
        n, m = 5, 4
        job = build(backend, n, m=m, check="strict")

        def body(c, drv):
            for k in range(3):
                yield from c.allreduce(np.full(m, c.rank + k + 1.0))
                yield from c.allgather(np.full(m, float(c.rank)))
                yield from c.bcast(np.full(m, 7.0), root=k % c.n)
                yield from c.barrier()

        run_ranks(job, body)  # AnalysisError would propagate
        assert not job.analysis.findings

    @pytest.mark.parametrize("backend", ["rma", "gaspi"])
    def test_cap_exceeded_raises(self, backend):
        """Backends with preallocated substrate (window buffers, segment
        regions) reject payloads over the declared cap; the two-sided
        backend has no cap — its buffers are per-call."""
        job = build(backend, 2, m=4)

        def body(c, drv):
            with pytest.raises(CollectiveError, match="exceeds the declared"):
                yield from c.allreduce(np.zeros(16))
            yield from c.barrier()

        run_ranks(job, body)

    def test_twosided_is_uncapped(self):
        job = build("twosided", 2, m=4)
        got = {}

        def body(c, drv):
            v = yield from c.allreduce(np.ones(64))
            got[c.rank] = v

        run_ranks(job, body)
        assert np.array_equal(got[0], np.full(64, 2.0))


class TestMakeCollectives:
    def test_unknown_backend_rejected(self):
        job = make_job(None, 2)
        with pytest.raises(CollectiveError, match="backend must be one of"):
            make_collectives(job, backend="verbs")

    def test_backend_defaults_to_spec_axis(self):
        job = make_job("rma", 2)
        colls = make_collectives(job)
        assert all(c.backend == "rma" for c in colls)

    def test_default_is_twosided(self):
        job = make_job(None, 2)
        assert [c.backend for c in make_collectives(job)] == ["twosided"] * 2

    def test_gaspi_needs_context(self):
        job = make_job(None, 2)  # mpi variant, no backend -> no GaspiContext
        assert job.gaspi is None
        with pytest.raises(CollectiveError, match="backend='gaspi'"):
            make_collectives(job, backend="gaspi")

    def test_gaspi_backend_provisions_context_under_mpi_variant(self):
        job = make_job("gaspi", 2)
        assert job.gaspi is not None

    def test_spec_rejects_unknown_backend(self):
        from repro.harness import VariantError

        with pytest.raises(VariantError, match="backend"):
            JobSpec(machine=MARENOSTRUM4, n_nodes=1, variant="mpi",
                    backend="verbs")


class TestRmaEpochSemantics:
    """The new Window fence assertions / info hints the rma backend uses."""

    def make_win(self, info=None):
        job = make_job(None, 2)
        bufs = {r: np.zeros(8) for r in range(2)}
        return job, Window.create(job.mpi, bufs, info=info)

    def test_no_locks_window_rejects_lock_all(self):
        job, win = self.make_win(info={"no_locks": True})

        def body(drv):
            with pytest.raises(MPIError, match="no_locks"):
                yield from win.lock_all(0)  # analysis-ok: raises, no epoch opens

        job.run([job.drivers[0].spawn(body)])

    def test_noprecede_with_outstanding_puts_raises(self):
        job, win = self.make_win()

        def r0(drv):
            win.put(0, np.ones(4), target=1)
            with pytest.raises(MPIError, match="NOPRECEDE"):
                yield from win.fence(0, MPI_MODE_NOPRECEDE)
            # clean up so rank 1's plain fence can complete
            yield from win.fence(0)

        def r1(drv):
            yield from win.fence(1)

        job.run([job.drivers[0].spawn(r0), job.drivers[1].spawn(r1)])

    def test_epoch_closed_after_nosucceed(self):
        job, win = self.make_win()

        def body(r):
            def main(drv):
                yield from win.fence(r, MPI_MODE_NOSUCCEED)
                if r == 0:
                    with pytest.raises(MPIError, match="NOSUCCEED"):
                        win.put(0, np.ones(2), target=1)
                # a new fence reopens the epoch
                yield from win.fence(r)
                if r == 0:
                    win.put(0, np.ones(2), target=1)
                yield from win.fence(r)
            return main

        job.run([job.drivers[r].spawn(body(r)) for r in range(2)])


class TestEventuallyConsistent:
    @pytest.mark.parametrize("n_ranks", [3, 4, 8])
    @pytest.mark.parametrize("staleness", [0, 1, 2])
    def test_staleness_bound_and_fence_exactness(self, n_ranks, staleness):
        rounds = 4
        job = build("gaspi", n_ranks, check="strict", ec_rounds=rounds + 1)
        partials = {}
        exacts = {}

        def body(c, drv):
            ps = []
            for k in range(rounds):
                v = yield from c.ec_allreduce(
                    [float((c.rank + 1) * (k + 1))], staleness=staleness)
                ps.append(float(v[0]))
            yield from c.barrier()
            ex = yield from c.ec_fence()
            partials[c.rank] = ps
            exacts[c.rank] = [float(e[0]) for e in ex]

        run_ranks(job, body)
        total = sum(range(1, n_ranks + 1))
        for r in range(n_ranks):
            coll = job._test_colls[r]
            # every round proceeded missing at most `staleness` peers...
            assert len(coll.ec_missing) == rounds
            assert all(0 <= miss <= staleness for miss in coll.ec_missing)
            for k in range(rounds):
                # ...so the partial under-counts by at most the stalest
                # contributions, and the fence restores exactness
                assert exacts[r][k] == pytest.approx(total * (k + 1))
                assert partials[r][k] <= exacts[r][k] + 1e-12
                gap = exacts[r][k] - partials[r][k]
                max_contrib = n_ranks * (k + 1)  # largest per-rank value
                assert gap <= staleness * max_contrib + 1e-12

    def test_zero_staleness_is_exact_immediately(self):
        job = build("gaspi", 4, ec_rounds=2)
        got = {}

        def body(c, drv):
            v = yield from c.ec_allreduce([float(c.rank)], staleness=0)
            got[c.rank] = float(v[0])
            yield from c.barrier()
            yield from c.ec_fence()

        run_ranks(job, body)
        assert all(v == pytest.approx(6.0) for v in got.values())

    def test_staleness_out_of_range_rejected(self):
        job = build("gaspi", 3)

        def body(c, drv):
            with pytest.raises(CollectiveError, match="staleness"):
                yield from c.ec_allreduce([1.0], staleness=3)
            yield from c.barrier()

        run_ranks(job, body)

    def test_round_capacity_enforced(self):
        job = build("gaspi", 2, ec_rounds=1)

        def body(c, drv):
            yield from c.ec_allreduce([1.0])
            with pytest.raises(CollectiveError, match="ec_rounds"):
                yield from c.ec_allreduce([1.0])
            yield from c.barrier()

        run_ranks(job, body)

    @pytest.mark.parametrize("backend", ["twosided", "rma"])
    def test_only_gaspi_backend_has_ec(self, backend):
        job = build(backend, 2)

        def body(c, drv):
            with pytest.raises(CollectiveError, match="gaspi only"):
                yield from c.ec_allreduce([1.0])
            with pytest.raises(CollectiveError, match="gaspi only"):
                yield from c.ec_fence()
            yield from c.barrier()

        run_ranks(job, body)


class TestTracing:
    def test_collective_spans_recorded(self):
        from repro.trace import Tracer

        mach = MARENOSTRUM4.with_cores(3)
        spec = JobSpec(machine=mach, n_nodes=1, variant="mpi",
                       backend="gaspi")
        job = build_job(spec, tracer=Tracer(progress_every=None))
        job._test_colls = make_collectives(job, max_reduce_elems=4)

        def body(c, drv):
            yield from c.allreduce(np.ones(4))
            yield from c.barrier()

        run_ranks(job, body)
        names = {rec.name for rec in job.tracer.spans("coll")}
        assert "gaspi.allreduce" in names and "gaspi.barrier" in names


class TestRmaAllreduceCost:
    """The RMA allreduce's cost against its α–β closed form, one rank per
    node (every Get response crosses the wire). Everything that does not
    depend on the payload — both fence barriers, lock charges, latencies,
    the control messages — cancels in the difference of two runs that
    differ only in ``m``, leaving the β term: how many response
    serializations ``s(m)`` lie on the critical path. Both sizes are large
    enough that the response traffic dominates every overlap."""

    M1, M2 = 4096, 5120

    @staticmethod
    def _sim_time(n, m):
        job = build("rma", n, m=m, n_nodes=n, seed=None)
        return run_ranks(job, lambda c, drv: c.allreduce(np.ones(m)))

    def _beta_term(self, n):
        from repro.mpi.datatypes import CONTROL_BYTES

        fab = MARENOSTRUM4.fabric

        def s(m):  # one Get response on the wire
            return fab.serialization(8 * m + CONTROL_BYTES, intra=False)

        measured = self._sim_time(n, self.M2) - self._sim_time(n, self.M1)
        return measured, s(self.M2) - s(self.M1)

    @pytest.mark.xfail(strict=True, reason=(
        "the model serializes 2n-2 responses, not n: measured/predicted "
        "= 1.5, 1.75, 1.9375 at 4, 8, 32 ranks (docs/collectives.md)"))
    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_matches_n_minus_1_get_incast(self, n):
        # naive prediction: the target egress sends one response while the
        # origin's ingress absorbs the n-1 responses back to back
        measured, ds = self._beta_term(n)
        assert measured == pytest.approx(n * ds, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_critical_path_is_2n_minus_2_responses(self, n):
        # every origin Gets from its peers in ascending rank order, so
        # every target serves origins in that same order: rank n-1's first
        # response leaves after n-1 egress slots, then its ingress takes
        # n-1 more
        measured, ds = self._beta_term(n)
        assert measured == pytest.approx((2 * n - 2) * ds, rel=1e-12)
