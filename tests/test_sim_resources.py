"""Unit tests for serial devices."""

import pytest

from repro.sim import Engine
from repro.sim.serial import SerialDevice


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

