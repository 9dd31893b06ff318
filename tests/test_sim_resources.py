"""Unit tests for serial devices."""

import numpy as np
import pytest

from repro.gaspi import GaspiContext
from repro.mpi.threading import GlobalLock
from repro.network import Cluster, INFINIBAND
from repro.sim import Engine
from repro.sim.serial import SerialDevice


class TestSerialDevice:
    def test_uncontended_service_is_immediate(self):
        dev = SerialDevice()
        assert dev.use(2.0, 0.0) == 0.0
        assert dev.busy_until == 2.0

    def test_back_to_back_requests_queue(self):
        dev = SerialDevice()
        s1 = dev.use(2.0, 0.0)
        s2 = dev.use(3.0, 0.0)
        assert s2 == s1 + 2.0  # starts when the first ends: waited 2.0
        assert dev.busy_until == pytest.approx(5.0)

    def test_idle_gap_not_carried(self):
        dev = SerialDevice()
        dev.use(1.0, 0.0)
        assert dev.use(1.0, 10.0) == 10.0

    def test_stats_accumulate(self):
        """The owners count: the MPI lock its time inside MPI, a GASPI
        queue its wait and hold time."""
        lock = GlobalLock(Engine(), 0)
        for _ in range(3):
            lock.enter(1.0)
        assert lock.calls == 3
        assert lock.wait_in_mpi == pytest.approx(1.0 + 2.0)
        assert lock.time_in_mpi == pytest.approx(1.0 + 2.0 + 3.0)

        eng = Engine()
        cl = Cluster(eng, 2, INFINIBAND)
        cl.place_ranks_block(2, 1)
        g = GaspiContext(cl, n_queues=1)
        g.rank(0).segment_register(0, np.zeros(8))
        g.rank(1).segment_register(0, np.zeros(8))
        for _ in range(3):
            g.rank(0).write(0, 0, 1, 0, 0, 8, queue=0)
        op = INFINIBAND.cost("gaspi.op")
        q = g.rank(0).queues[0]
        assert q.wait_time == pytest.approx(op + 2 * op)
        assert q.hold_time == pytest.approx(3 * op)

    def test_explicit_at_parameter(self):
        dev = SerialDevice()
        assert dev.use(5.0, 1.0) == 1.0
        s2 = dev.use(1.0, 2.0)
        assert s2 == 6.0 and s2 - 2.0 == pytest.approx(4.0)
