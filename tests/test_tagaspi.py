"""Unit tests for the TAGASPI library — the paper's contribution (§IV)."""

import numpy as np
import pytest

from repro.sim import Engine
from repro.network import Cluster, INFINIBAND
from repro.gaspi import GaspiContext
from repro.tasking import Runtime, RuntimeConfig, In, Out, InOut, TaskingError
from repro.core import TAGASPI
from tests.conftest import run_all


def make_pair(poll_us=50, n_queues=4):
    eng = Engine()
    cl = Cluster(eng, 2, INFINIBAND)
    cl.place_ranks_block(2, 1)
    g = GaspiContext(cl, n_queues=n_queues)
    rts = [Runtime(eng, RuntimeConfig(n_cores=2), f"rt{r}") for r in range(2)]
    tgs = [TAGASPI(rts[r], g.rank(r), poll_period_us=poll_us) for r in range(2)]
    return eng, g, rts, tgs


class TestWriteNotify:
    def test_fig3_fig4_pattern(self):
        """Paper Figs. 3–4: writer task + reuse task on the sender;
        wait task + process task on the receiver."""
        eng, g, (rt0, rt1), (tg0, tg1) = make_pair()
        src = np.arange(32, dtype=np.float64)
        dst = np.zeros(32, dtype=np.float64)
        g.rank(0).segment_register(0, src)
        g.rank(1).segment_register(0, dst)
        log = []

        def sender_main(rt):
            def write_data(task):
                tg0.write_notify(0, 0, 1, 0, 0, 32, notif_id=10, notif_val=1, queue=0)
            rt.submit(write_data, [In("A")], label="write data")

            def reuse(task):
                log.append(("reuse", eng.now))
                src[:] = -1.0  # safe: the write completed locally
            rt.submit(reuse, [InOut("A")], label="reuse")
            yield from rt.taskwait()

        def receiver_main(rt):
            notified = [0]
            def wait_data(task):
                tg1.notify_iwait(0, 10, notified)
            rt.submit(wait_data, [Out("B"), Out("notified")], label="wait data")

            def process(task):
                log.append(("process", dst.copy(), notified[0]))
            rt.submit(process, [In("B"), In("notified")], label="process")
            yield from rt.taskwait()

        run_all(eng, [rt0.spawn_main(sender_main), rt1.spawn_main(receiver_main)])
        proc = [e for e in log if e[0] == "process"][0]
        assert np.array_equal(proc[1], np.arange(32, dtype=np.float64))
        assert proc[2] == 1

    def test_write_notify_binds_two_events(self):
        eng, g, (rt0, _), (tg0, _) = make_pair()
        g.rank(0).segment_register(0, np.zeros(8))
        g.rank(1).segment_register(0, np.zeros(8))
        counts = {}

        def main(rt):
            def body(task):
                tg0.write_notify(0, 0, 1, 0, 0, 8, notif_id=0, notif_val=1, queue=0)
                counts["events"] = task.events
            rt.submit(body, [])
            yield from rt.taskwait()

        run_all(eng, [rt0.spawn_main(main)])
        assert counts["events"] == 2

    def test_outside_task_rejected(self):
        _eng, g, _rts, (tg0, _) = make_pair()
        g.rank(0).segment_register(0, np.zeros(8))
        with pytest.raises(TaskingError, match="outside a task"):
            tg0.write_notify(0, 0, 1, 0, 0, 8, notif_id=0, notif_val=1, queue=0)

    def test_read_into_local_segment(self):
        eng, g, (rt0, _), (tg0, _) = make_pair()
        local = np.zeros(8)
        remote = np.arange(8, dtype=np.float64)
        g.rank(0).segment_register(0, local)
        g.rank(1).segment_register(0, remote)
        seen = []

        def main(rt):
            rt.submit(lambda task: tg0.read(0, 0, 1, 0, 0, 8, queue=0),
                      [Out("L")], label="read")
            rt.submit(lambda task: seen.append(local.copy()), [In("L")], label="use")
            yield from rt.taskwait()

        run_all(eng, [rt0.spawn_main(main)])
        assert np.array_equal(seen[0], np.arange(8, dtype=np.float64))


class TestNotifyIwait:
    def test_already_arrived_notification_needs_no_event(self):
        eng, g, (rt0, rt1), (tg0, tg1) = make_pair()
        g.rank(0).segment_register(0, np.zeros(1))
        g.rank(1).segment_register(0, np.zeros(1))
        # pre-arrive a notification
        g.rank(1).segment(0).post_notification(5, 3)
        out = [0]
        events = {}

        def main(rt):
            def body(task):
                tg1.notify_iwait(0, 5, out)
                events["n"] = task.events
            rt.submit(body, [])
            yield from rt.taskwait()

        run_all(eng, [rt1.spawn_main(main)])
        assert out[0] == 3
        assert events["n"] == 0
        assert tg1.stats_notif_immediate == 1

    def test_iwaitall_range(self):
        eng, g, (rt0, rt1), (tg0, tg1) = make_pair()
        g.rank(0).segment_register(0, np.zeros(1))
        g.rank(1).segment_register(0, np.zeros(1))
        outs = [[0] for _ in range(3)]
        got = []

        def sender_main(rt):
            def body(task):
                for i in range(3):
                    tg0.notify(1, 0, notif_id=10 + i, notif_val=i + 1, queue=0)
            rt.submit(body, [])
            yield from rt.taskwait()

        def receiver_main(rt):
            rt.submit(lambda task: tg1.notify_iwaitall(0, 10, 3, outs),
                      [Out("n")], label="waitall")
            rt.submit(lambda task: got.extend(o[0] for o in outs), [In("n")])
            yield from rt.taskwait()

        run_all(eng, [rt0.spawn_main(sender_main), rt1.spawn_main(receiver_main)])
        assert got == [1, 2, 3]

    def test_pool_reuses_objects(self):
        eng, g, (rt0, rt1), (tg0, tg1) = make_pair()
        g.rank(0).segment_register(0, np.zeros(1))
        g.rank(1).segment_register(0, np.zeros(1))

        def sender_main(rt):
            for i in range(10):
                def body(task, i=i):
                    tg0.notify(1, 0, notif_id=i, notif_val=1, queue=0)
                rt.submit(body, [InOut("serial")])
            yield from rt.taskwait()

        def receiver_main(rt):
            for i in range(10):
                rt.submit(lambda task, i=i: tg1.notify_iwait(0, i),
                          [InOut("serial")])
            yield from rt.taskwait()

        run_all(eng, [rt0.spawn_main(sender_main), rt1.spawn_main(receiver_main)])
        assert tg1.pool.allocated == 0  # preallocated pool sufficed
        assert tg1.pending_notification_count == 0

    def test_mpsc_drained_in_batches(self):
        eng, g, (rt0, rt1), (tg0, tg1) = make_pair(poll_us=500)
        g.rank(0).segment_register(0, np.zeros(1))
        g.rank(1).segment_register(0, np.zeros(1))

        def receiver_main(rt):
            def body(task):
                for i in range(6):
                    tg1.notify_iwait(0, i)
            rt.submit(body, [])
            yield from rt.flush()
            yield eng.timeout(2e-3)
            # all six pending waits were registered through the MPSC queue
            assert tg1.mpsc.pushes == 6

        def sender_main(rt):
            def body(task):
                for i in range(6):
                    tg0.notify(1, 0, notif_id=i, notif_val=1, queue=0)
            rt.submit(body, [])
            yield from rt.taskwait()

        run_all(eng, [rt1.spawn_main(receiver_main), rt0.spawn_main(sender_main)])

    def test_iwaitall_short_outs_rejected_up_front(self):
        # a short outs sequence must fail before any id is registered —
        # failing midway would leave the earlier waits already bound
        eng, g, (rt0, rt1), (tg0, tg1) = make_pair()
        g.rank(1).segment_register(0, np.zeros(1))
        with pytest.raises(TaskingError, match="2 slot"):
            tg1.notify_iwaitall(0, 10, 3, outs=[[], []])
        assert tg1._pending_notifs == []  # nothing was registered

    def test_iwaitall_extra_outs_slots_allowed(self):
        eng, g, (rt0, rt1), (tg0, tg1) = make_pair()
        g.rank(0).segment_register(0, np.zeros(1))
        g.rank(1).segment_register(0, np.zeros(1))
        outs = [[0] for _ in range(4)]  # one spare entry is fine
        got = []

        def sender_main(rt):
            def body(task):
                for i in range(3):
                    tg0.notify(1, 0, notif_id=10 + i, notif_val=i + 1, queue=0)
            rt.submit(body, [])
            yield from rt.taskwait()

        def receiver_main(rt):
            rt.submit(lambda task: tg1.notify_iwaitall(0, 10, 3, outs),
                      [Out("n")], label="waitall")
            rt.submit(lambda task: got.extend(o[0] for o in outs[:3]), [In("n")])
            yield from rt.taskwait()

        run_all(eng, [rt0.spawn_main(sender_main), rt1.spawn_main(receiver_main)])
        assert got == [1, 2, 3]


class TestOnreadyIntegration:
    def test_fig8_ack_protected_writer(self):
        """Paper Fig. 8: the writer task's onready waits for the receiver's
        ack notification; execution is delayed until the ack arrives."""
        eng, g, (rt0, rt1), (tg0, tg1) = make_pair()
        g.rank(0).segment_register(0, np.zeros(8))
        g.rank(1).segment_register(0, np.zeros(8))
        stamps = {}

        def sender_main(rt):
            def ack_iwait(task):
                tg0.notify_iwait(0, 20)  # registered as a pre-event
                stamps["onready"] = eng.now

            def write(task):
                stamps["write"] = eng.now
                tg0.write_notify(0, 0, 1, 0, 0, 8, notif_id=10, notif_val=1, queue=0)

            rt.submit(write, [In("A")], label="write", onready=ack_iwait)
            yield from rt.taskwait()

        def receiver_main(rt):
            def send_ack(task):
                yield task.compute(300e-6)  # receiver takes a while
                tg1.notify(0, 0, notif_id=20, notif_val=1, queue=0)
            rt.submit(send_ack, [])
            rt.submit(lambda task: tg1.notify_iwait(0, 10), [Out("B")])
            yield from rt.taskwait()

        run_all(eng, [rt0.spawn_main(sender_main), rt1.spawn_main(receiver_main)])
        assert stamps["onready"] < 100e-6  # onready ran immediately
        assert stamps["write"] >= 300e-6  # body delayed until the ack

    def test_early_ack_does_not_delay_writer(self):
        """If the ack already arrived when onready runs, notify_iwait
        consumes it immediately and the writer is scheduled at once
        (the favourable case discussed at the end of §V-A)."""
        eng, g, (rt0, rt1), (tg0, tg1) = make_pair()
        g.rank(0).segment_register(0, np.zeros(8))
        g.rank(1).segment_register(0, np.zeros(8))
        # ack is already there
        g.rank(0).segment(0).post_notification(20, 1)
        stamps = {}

        def sender_main(rt):
            def write(task):
                stamps["write"] = eng.now
                tg0.write_notify(0, 0, 1, 0, 0, 8, notif_id=10, notif_val=1, queue=0)
            rt.submit(write, [], onready=lambda task: tg0.notify_iwait(0, 20))
            yield from rt.taskwait()

        def receiver_main(rt):
            rt.submit(lambda task: tg1.notify_iwait(0, 10), [Out("B")])
            yield from rt.taskwait()

        run_all(eng, [rt0.spawn_main(sender_main), rt1.spawn_main(receiver_main)])
        assert stamps["write"] < 50e-6


class TestPollerMechanics:
    def test_poller_idle_when_no_work(self):
        eng, g, (rt0, _), (tg0, _) = make_pair()
        g.rank(0).segment_register(0, np.zeros(1))

        def main(rt):
            yield eng.timeout(5e-3)

        run_all(eng, [rt0.spawn_main(main)])
        # with no operations, the poller parks: no request_wait calls burn CPU
        assert tg0.stats_ops == 0
        assert rt0.core_busy_time() < 1e-4

    def test_no_gaspi_global_lock_contention(self):
        """Many tasks posting to distinct queues contend on nothing —
        contrast with the TAMPI lock test."""
        eng, g, (rt0, rt1), (tg0, tg1) = make_pair(n_queues=8)
        g.rank(0).segment_register(0, np.zeros(1024))
        g.rank(1).segment_register(0, np.zeros(1024))

        def sender_main(rt):
            for i in range(64):
                def body(task, i=i):
                    tg0.write_notify(0, 0, 1, 0, 0, 8, notif_id=i,
                                     notif_val=1, queue=i % 8)
                rt.submit(body, [])
            yield from rt.taskwait()

        def receiver_main(rt):
            def body(task):
                tg1.notify_iwaitall(0, 0, 64)
            rt.submit(body, [])
            yield from rt.taskwait()

        run_all(eng, [rt0.spawn_main(sender_main), rt1.spawn_main(receiver_main)])
        waits = [g.rank(0).queues[q].wait_time for q in range(8)]
        # per-queue waits exist but are bounded by a few op-costs each
        assert max(waits) < 64 * INFINIBAND.cost("gaspi.op")
