"""Failure injection and defensive-path tests: the simulator must fail
loudly and precisely when a model is wired wrong, since silent misbehaviour
would corrupt experiment results."""

import numpy as np
import pytest

from repro.gaspi import GaspiContext, GaspiError
from repro.harness import JobSpec, MARENOSTRUM4, build_job
from repro.mpi import MPIContext, MPIProcDriver, MPIError
from repro.network import Cluster, Message, OMNIPATH
from repro.sim import Engine, SimulationError
from repro.tasking import Runtime, RuntimeConfig, Out
from tests.conftest import run_all


def two_rank_cluster():
    eng = Engine()
    cl = Cluster(eng, 2, OMNIPATH)
    cl.place_ranks_block(2, 1)
    return eng, cl


class TestNetworkFailures:
    def test_unrouted_message_fails_at_delivery(self):
        eng, cl = two_rank_cluster()
        cl.send(Message(0, 1, "ghost-protocol", "k", 8))
        with pytest.raises(SimulationError, match="endpoint"):
            eng.run()

    def test_duplicate_endpoint_rejected(self):
        eng, cl = two_rank_cluster()
        cl.register_endpoint(1, "p", lambda m: None)
        with pytest.raises(SimulationError, match="twice"):
            cl.register_endpoint(1, "p", lambda m: None)


class TestJobFailures:
    def test_deadlocked_job_is_reported_with_survivors(self):
        job = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=1, variant="mpi"))

        def stuck(drv):
            buf = np.zeros(4)
            req = yield from drv.irecv(buf, 1, tag=9)  # nobody sends
            yield from drv.wait(req)

        proc = job.drivers[0].spawn(stuck)
        with pytest.raises(SimulationError, match="deadlock"):
            job.run([proc])

    def test_event_budget_guard(self):
        job = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=1, variant="mpi"))

        def chatty(drv):
            while True:
                yield drv.engine.timeout(1e-6)

        proc = job.drivers[0].spawn(chatty)
        with pytest.raises(SimulationError, match="budget"):
            job.run([proc], max_events=100)

    def test_deadlock_error_names_cycle_when_checked(self):
        """With the analysis pipeline enabled, a stalled job reports the
        wait-for cycle, not just that it stalled."""
        job = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=1,
                                variant="mpi", check="report"))

        def make(peer):
            def stuck(drv):
                buf = np.zeros(4)
                # head-to-head: both ranks recv first, then (never) send
                req = yield from drv.irecv(buf, peer, tag=1)
                yield from drv.wait(req)
                # analysis-ok: never reached (both ranks deadlock above)
                yield from drv.isend(np.ones(4), peer, tag=1)
            return stuck

        procs = [job.drivers[0].spawn(make(1)),
                 job.drivers[1].spawn(make(0))]
        with pytest.raises(SimulationError) as exc:
            job.run(procs)
        msg = str(exc.value)
        assert "wait-for diagnosis" in msg
        assert "deadlock cycle: rank0 -> rank1 -> rank0" in msg

    def test_app_exception_propagates_out_of_job(self):
        job = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=1, variant="tampi"))

        def main(rt):
            def bad(task):
                raise ValueError("application bug")
            rt.submit(bad, [])
            yield from rt.taskwait()

        with pytest.raises(ValueError, match="application bug"):
            job.run([job.runtimes[0].spawn_main(main)])


class TestSubstrateMisuse:
    def test_mpi_send_to_self_completes(self):
        """Self-messaging is legal MPI; ensure no artificial restriction."""
        eng = Engine()
        cl = Cluster(eng, 1, OMNIPATH)
        cl.place_ranks_block(1, 1)
        mpi = MPIContext(cl)
        got = {}

        def main(drv):
            buf = np.zeros(3)
            r1 = yield from drv.isend(np.arange(3.0), 0, tag=0)
            r2 = yield from drv.irecv(buf, 0, tag=0)
            yield from drv.waitall([r1, r2])
            got["buf"] = buf.copy()

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(main)])
        assert np.array_equal(got["buf"], [0.0, 1.0, 2.0])

    def test_gaspi_write_out_of_segment_bounds(self):
        eng, cl = two_rank_cluster()
        g = GaspiContext(cl)
        g.rank(0).segment_register(0, np.zeros(4))
        g.rank(1).segment_register(0, np.zeros(4))
        with pytest.raises(GaspiError, match="outside"):
            g.rank(0).write(0, 2, 1, 0, 0, 4, queue=0)

    def test_gaspi_remote_overflow_fails_at_delivery(self):
        eng, cl = two_rank_cluster()
        g = GaspiContext(cl)
        g.rank(0).segment_register(0, np.zeros(8))
        g.rank(1).segment_register(0, np.zeros(4))  # remote too small
        g.rank(0).write(0, 0, 1, 0, 0, 8, queue=0)
        with pytest.raises(GaspiError, match="outside"):
            eng.run()


class TestRuntimeMisuse:
    def test_body_raising_mid_generator_fails_worker(self):
        eng = Engine()
        rt = Runtime(eng, RuntimeConfig(n_cores=1))

        def main(rt):
            def body(task):
                yield task.compute(1e-6)
                raise RuntimeError("mid-body failure")
            rt.submit(body, [Out("x")])
            yield from rt.taskwait()

        with pytest.raises(RuntimeError, match="mid-body failure"):
            run_all(eng, [rt.spawn_main(main)])

    def test_fulfilling_pre_event_that_was_never_added(self):
        eng = Engine()
        rt = Runtime(eng, RuntimeConfig(n_cores=1))
        t = rt.submit(lambda task: None, [])
        with pytest.raises(RuntimeError, match="pre-events"):
            t.fulfill_pre_event(1)
