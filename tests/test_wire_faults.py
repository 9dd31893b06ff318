"""Wire-level fault injection keeps the transport's ordering contract.

Every inter-node transmission, faulted or not, takes ``Cluster.send``'s one
receiver-ordered path; an installed injector only changes its inputs. These
tests pin what that buys:

* a plan whose faults never fire is bit-identical to no plan;
* a dropped and retransmitted message is never overtaken on its
  (src_rank, dst_rank) channel, so MPI non-overtaking and GASPI's
  notification-after-data order hold under loss;
* a message lost for good releases its channel.
"""

import dataclasses

import numpy as np

from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.apps.streaming.common import StreamingParams
from repro.apps.streaming.runner import run_streaming
from repro.faults import FaultPlan, LinkDegradation, NodeStall, ScriptedFault
from repro.harness import CTE_AMD, MARENOSTRUM4, JobSpec
from repro.mpi import MPIContext, MPIProcDriver
from tests.conftest import run_all
from tests.test_faults import make_cluster, make_gaspi

#: faults that lie long after any of these runs ends
INERT_PLANS = {
    "degradation": FaultPlan(degradations=(
        LinkDegradation(t0=100.0, t1=101.0, latency_factor=4.0,
                        bandwidth_factor=0.5),)),
    "stall": FaultPlan(stalls=(NodeStall(node=0, t0=100.0, duration=1.0),)),
}


def _same_result(clean, faulted):
    assert faulted.sim_time == clean.sim_time
    keys = {k for k in clean.extra if not k.startswith("fault_")}
    assert keys == {k for k in faulted.extra if not k.startswith("fault_")}
    for k in sorted(keys):
        assert faulted.extra[k] == clean.extra[k], k
    assert faulted.extra["fault_injected"] == 0.0


class TestInertPlan:
    def test_gauss_seidel_mpi(self):
        params = GSParams(rows=256, cols=1024, timesteps=2, block_size=64)
        spec = JobSpec(machine=MARENOSTRUM4.with_cores(8), n_nodes=4,
                       variant="mpi", seed=1)
        clean = run_gauss_seidel(spec, params)
        for plan in INERT_PLANS.values():
            faulted = run_gauss_seidel(
                dataclasses.replace(spec, faults=plan), params)
            _same_result(clean, faulted)

    def test_streaming_mpi(self):
        params = StreamingParams(chunks=2, elements_per_chunk=65536,
                                 block_size=512, compute_data=False)
        spec = JobSpec(machine=CTE_AMD.with_cores(8), n_nodes=4,
                       variant="mpi", seed=1)
        clean = run_streaming(spec, params)
        for plan in INERT_PLANS.values():
            faulted = run_streaming(
                dataclasses.replace(spec, faults=plan), params)
            _same_result(clean, faulted)


class TestChannelOrderUnderLoss:
    def test_mpi_retransmitted_eager_not_overtaken(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 0, 1, kind="eager"),))
        eng, cl, inj = make_cluster(plan)
        mpi = MPIContext(cl)
        got = []

        def sender(drv):
            r1 = yield from drv.isend(np.full(4, 1.0), 1, tag=7)
            r2 = yield from drv.isend(np.full(4, 2.0), 1, tag=7)
            yield from drv.wait(r1)
            yield from drv.wait(r2)

        def receiver(drv):
            for _ in range(2):
                buf = np.zeros(4)
                req = yield from drv.irecv(buf, 0, tag=7)
                yield from drv.wait(req)
                got.append(buf[0])

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert got == [1.0, 2.0]
        assert inj.stats.retransmits == 1

    def test_gaspi_notification_after_dropped_write(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 0, 1, kind="write"),))
        eng, g, inj = make_gaspi(plan)
        dst = np.zeros(8)
        g.rank(0).segment_register(0, np.full(8, 5.0))
        g.rank(1).segment_register(0, dst)
        g.rank(0).write(0, 0, 1, 0, 0, 8, queue=0)
        g.rank(0).notify(1, 0, notif_id=3, notif_val=1, queue=0)

        def recv():
            yield from g.rank(1).notify_waitsome(0, 3, 1)
            return dst.copy()

        seen = eng.run_until_complete(eng.process(recv()))
        assert np.array_equal(seen, np.full(8, 5.0))
        assert inj.stats.retransmits == 1

    def test_permanent_loss_releases_channel(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 0, 1, kind="write"),),
                         nic_ack=False)
        eng, g, inj = make_gaspi(plan)
        dst = np.zeros(2)
        g.rank(0).segment_register(0, np.array([1.0, 2.0]))
        g.rank(1).segment_register(0, dst)
        g.rank(0).write(0, 0, 1, 0, 0, 1, queue=0)  # lost for good
        g.rank(0).write(0, 1, 1, 0, 1, 1, queue=0)
        eng.run()
        assert np.array_equal(dst, [0.0, 2.0])
        assert inj.stats.lost == 1
