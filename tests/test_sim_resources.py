"""Unit tests for mutexes and serial devices."""

import pytest

from repro.sim import Engine, Mutex, SimulationError
from repro.sim.serial import SerialDevice


class TestMutex:
    def test_fifo_ordering(self):
        eng = Engine()
        order = []

        def worker(name, m, hold):
            yield m.acquire()
            order.append(name)
            yield eng.timeout(hold)
            m.release()

        m = Mutex(eng)
        for n in ("a", "b", "c"):
            eng.process(worker(n, m, 1.0))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_wait_and_hold_accounting(self):
        eng = Engine()
        m = Mutex(eng)

        def worker(hold):
            yield m.acquire()
            yield eng.timeout(hold)
            m.release()

        eng.process(worker(1.0))
        eng.process(worker(2.0))
        eng.run()
        # second worker waits 1s for the first
        assert m.stats.total_wait_time == pytest.approx(1.0)
        assert m.stats.total_hold_time == pytest.approx(3.0)
        assert m.stats.acquisitions == 2
        assert m.stats.contended_acquisitions == 1

    def test_try_acquire(self):
        eng = Engine()
        m = Mutex(eng)
        assert m.try_acquire()
        assert not m.try_acquire()
        m.release()
        assert m.try_acquire()

    def test_release_unheld_raises(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            Mutex(eng).release()

    def test_queue_depth(self):
        eng = Engine()
        m = Mutex(eng)
        m.acquire()
        m.acquire()
        m.acquire()
        assert m.queue_depth == 2
        assert m.stats.max_queue_depth == 2


class TestSerialDevice:
    def test_uncontended_service_is_immediate(self):
        eng = Engine()
        dev = SerialDevice(eng)
        g = dev.use(2.0)
        assert g.start == 0.0 and g.end == 2.0 and g.wait == 0.0

    def test_back_to_back_requests_queue(self):
        eng = Engine()
        dev = SerialDevice(eng)
        g1 = dev.use(2.0)
        g2 = dev.use(3.0)
        assert g2.start == g1.end
        assert g2.wait == pytest.approx(2.0)
        assert g2.end == pytest.approx(5.0)

    def test_idle_gap_not_carried(self):
        eng = Engine()
        dev = SerialDevice(eng)
        dev.use(1.0)
        g = dev.use(1.0, at=10.0)
        assert g.start == 10.0 and g.wait == 0.0

    def test_stats_accumulate(self):
        eng = Engine()
        dev = SerialDevice(eng)
        dev.use(1.0)
        dev.use(1.0)
        dev.use(1.0)
        st = dev.stats
        assert st.acquisitions == 3
        assert st.contended_acquisitions == 2
        assert st.total_wait_time == pytest.approx(1.0 + 2.0)
        assert st.total_hold_time == pytest.approx(3.0)

    def test_explicit_at_parameter(self):
        eng = Engine()
        dev = SerialDevice(eng)
        g1 = dev.use(5.0, at=1.0)
        g2 = dev.use(1.0, at=2.0)
        assert g1.start == 1.0
        assert g2.start == 6.0 and g2.wait == pytest.approx(4.0)

