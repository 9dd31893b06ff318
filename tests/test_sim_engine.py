"""Unit tests for the DES kernel: engine, events, processes."""

import pytest

from repro.sim import Engine, SimulationError
from repro.sim.engine import PRIORITY_URGENT
from repro.sim.events import Event, Timeout, AllOf
from repro.sim.serial import SerialDevice
from tests.conftest import ENGINE_SETUPS


class TestEngineBasics:
    def test_starts_at_time_zero(self):
        assert Engine().now == 0.0

    def test_timeout_advances_time(self):
        eng = Engine()
        eng.timeout(2.5)
        assert eng.run() == 2.5

    def test_run_until_caps_time(self):
        eng = Engine()
        eng.timeout(10.0)
        assert eng.run(until=3.0) == 3.0
        assert eng.now == 3.0

    def test_run_until_beyond_last_event(self):
        eng = Engine()
        eng.timeout(1.0)
        assert eng.run(until=5.0) == 5.0

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(Event(eng), delay=-1.0)

    def test_step_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Engine().step()

    def test_event_budget(self):
        eng = Engine()

        def looper():
            while True:
                yield eng.timeout(1.0)

        eng.process(looper())
        with pytest.raises(SimulationError, match="budget"):
            eng.run(max_events=50)

    def test_same_time_events_fire_in_insertion_order(self):
        eng = Engine()
        order = []
        for i in range(5):
            ev = Event(eng)
            ev.add_callback(lambda _e, i=i: order.append(i))
            ev.succeed(delay=1.0)
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_overrides_insertion_order(self):
        eng = Engine()
        order = []
        a = Event(eng)
        a.add_callback(lambda _e: order.append("normal"))
        a.succeed(delay=1.0)
        b = Event(eng)
        b.add_callback(lambda _e: order.append("urgent"))
        b.succeed(delay=1.0, priority=PRIORITY_URGENT)
        eng.run()
        assert order == ["urgent", "normal"]

    def test_event_count_increments(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.timeout(2.0)
        eng.run()
        assert eng.event_count == 2


class TestEvents:
    def test_value_before_trigger_raises(self):
        eng = Engine()
        ev = Event(eng)
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_double_trigger_rejected(self):
        eng = Engine()
        ev = Event(eng)
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_callback_after_trigger_runs_immediately(self):
        eng = Engine()
        ev = Event(eng)
        ev.succeed("v")
        eng.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_fail_requires_exception(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            Event(eng).fail("not an exception")  # type: ignore[arg-type]

    def test_unwaited_failure_surfaces(self):
        eng = Engine()
        Event(eng).fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            eng.run()

    def test_allof_collects_values_in_child_order(self):
        eng = Engine()
        evs = [eng.timeout(3.0, "a"), eng.timeout(1.0, "b")]
        cond = AllOf(eng, evs)
        eng.run()
        assert cond.value == ["a", "b"]
        assert eng.now == 3.0

    def test_allof_empty_fires_immediately(self):
        eng = Engine()
        cond = AllOf(eng, [])
        eng.run()
        assert cond.triggered and cond.value == []

    def test_allof_with_already_triggered_children(self):
        eng = Engine()
        done = eng.timeout(0.0, "x")
        eng.run()
        cond = AllOf(eng, [done, eng.timeout(1.0, "y")])
        eng.run()
        assert cond.value == ["x", "y"]


class TestProcesses:
    def test_return_value(self):
        eng = Engine()

        def body():
            yield eng.timeout(1.0)
            return 42

        assert eng.run_until_complete(eng.process(body())) == 42

    def test_timeout_value_passed_to_send(self):
        eng = Engine()
        got = []

        def body():
            v = yield eng.timeout(1.0, "payload")
            got.append(v)

        eng.run_until_complete(eng.process(body()))
        assert got == ["payload"]

    def test_process_joins_process(self):
        eng = Engine()

        def inner():
            yield eng.timeout(2.0)
            return "inner-result"

        def outer():
            v = yield eng.process(inner())
            return v

        assert eng.run_until_complete(eng.process(outer())) == "inner-result"

    def test_exception_propagates(self):
        eng = Engine()

        def body():
            yield eng.timeout(1.0)
            raise RuntimeError("model bug")

        with pytest.raises(RuntimeError, match="model bug"):
            eng.run_until_complete(eng.process(body()))

    def test_failed_event_thrown_into_process(self):
        eng = Engine()
        caught = []

        def body():
            ev = Event(eng)
            ev.fail(ValueError("net down"))
            try:
                yield ev
            except ValueError as e:
                caught.append(str(e))

        eng.run_until_complete(eng.process(body()))
        assert caught == ["net down"]

    def test_yielding_non_event_fails(self):
        eng = Engine()

        def body():
            yield 123

        with pytest.raises(SimulationError, match="must yield Events"):
            eng.run_until_complete(eng.process(body()))

    def test_non_generator_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="generator"):
            eng.process(lambda: None)  # type: ignore[arg-type]

    def test_deadlock_detected(self):
        eng = Engine()

        def stuck():
            yield Event(eng)  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            eng.run_until_complete(eng.process(stuck()))

    def test_waiting_on_self_fails(self):
        eng = Engine()
        holder = {}

        def body():
            yield holder["proc"]

        holder["proc"] = eng.process(body())
        with pytest.raises(SimulationError, match="waited on itself"):
            eng.run_until_complete(holder["proc"])


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            eng = Engine()
            trace = []

            # three processes contend for one FIFO device: each waits for
            # its grant, then holds it
            dev = SerialDevice()

            def worker(name):
                start = dev.use(0.5, eng.now)
                yield eng.timeout(start - eng.now)
                trace.append((eng.now, name))
                yield eng.timeout(start + 0.5 - eng.now)

            for n in ("a", "b", "c"):
                eng.process(worker(n))
            eng.run()
            return trace + [(eng.now, dev.busy_until)]

        first = run_once()
        assert first[:3] == [(0.0, "a"), (0.5, "b"), (1.0, "c")]
        assert first == run_once()


class TestScheduleValidation:
    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_delay_rejected(self, delay):
        eng = Engine()
        with pytest.raises(SimulationError, match="delay"):
            eng.schedule(Event(eng), delay=delay)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_succeed_rejects_non_finite_delay(self, delay):
        eng = Engine()
        with pytest.raises(SimulationError):
            Event(eng).succeed(delay=delay)
        assert eng.queue_depth == 0


class TestTimeoutInlining:
    """``Timeout(eng, delay, value)`` must leave the engine and the event
    exactly as ``Event(eng).succeed(value, delay)`` does."""

    @staticmethod
    def _state(eng, ev):
        slots = {s: getattr(ev, s, "<unset>") for s in Event.__slots__
                 if s not in ("engine", "callbacks")}
        return (eng._seq, eng.queue_depth, eng.peek(),
                [e._lseq for e in eng._lane],
                [entry[:3] for entry in eng._heap],
                ev.engine is eng, ev.callbacks, slots)

    @pytest.mark.parametrize("value", [None, "v"])
    @pytest.mark.parametrize("delay", [0.0, 2.5])
    @pytest.mark.parametrize("engine_cls", ENGINE_SETUPS)
    def test_matches_event_succeed(self, engine_cls, delay, value):
        states = []
        for make in (lambda eng: Timeout(eng, delay, value),
                     lambda eng: Event(eng).succeed(value, delay=delay)):
            eng = engine_cls()
            eng.timeout(1.0)
            eng.run()                       # now = 1.0, _seq moved
            eng.timeout(4.0)                # something already queued
            states.append(self._state(eng, make(eng)))
        assert states[0] == states[1]

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -0.5])
    def test_rejects_what_schedule_rejects(self, delay):
        eng = Engine()
        with pytest.raises(SimulationError, match="delay"):
            Timeout(eng, delay)
        assert eng.queue_depth == 0 and eng._seq == 0


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        eng = Engine()
        fired = []
        ev = eng.timeout(1.0)
        ev.add_callback(lambda e: fired.append(e))
        assert ev.cancel() is True
        eng.timeout(2.0)
        eng.run()
        assert fired == []
        assert not ev.triggered
        assert eng.now == 2.0
        assert eng.event_count == 1  # cancelled events are not counted

    def test_cancel_after_fire_returns_false(self):
        eng = Engine()
        ev = eng.timeout(1.0)
        eng.run()
        assert ev.cancel() is False

    def test_double_cancel_returns_false(self):
        eng = Engine()
        ev = eng.timeout(1.0)
        assert ev.cancel() is True
        assert ev.cancel() is False
        assert eng.queue_depth == 0

    def test_cancel_unscheduled_raises(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="unscheduled"):
            Event(eng).cancel()

    def test_queue_depth_and_peek_exclude_corpses(self):
        eng = Engine()
        evs = [eng.timeout(t) for t in (1.0, 2.0, 3.0)]
        assert eng.queue_depth == 3
        evs[0].cancel()
        assert eng.queue_depth == 2
        assert eng.peek() == 2.0  # corpse at t=1.0 is invisible
        evs[1].cancel()
        evs[2].cancel()
        assert eng.queue_depth == 0
        assert eng.peek() == float("inf")

    def test_run_on_fully_cancelled_queue_is_noop(self):
        eng = Engine()
        eng.timeout(1.0).cancel()
        assert eng.run() == 0.0
        assert eng.event_count == 0

    def test_budget_error_reports_live_depth_only(self):
        eng = Engine()
        for t in (1.0, 2.0, 3.0):
            eng.timeout(t)
        eng.timeout(4.0).cancel()
        with pytest.raises(SimulationError, match="2 queued-but-unfired"):
            eng.run(max_events=1)

    def test_cancel_immediate_event(self):
        eng = Engine()
        fired = []
        keep = Event(eng)
        keep.add_callback(lambda e: fired.append("keep"))
        gone = Event(eng)
        gone.add_callback(lambda e: fired.append("gone"))
        gone.succeed()
        keep.succeed()
        gone.cancel()
        eng.run()
        assert fired == ["keep"]

    def test_cancelled_timeout_with_budget_guard(self):
        """Cancelled corpses do not consume the max_events budget."""
        eng = Engine()
        for t in (1.0, 2.0):
            eng.timeout(t).cancel()
        eng.timeout(3.0)
        assert eng.run(max_events=1) == 3.0


class TestImmediateLane:
    """delay==0 normal-priority events take the FIFO lane; ordering must be
    indistinguishable from a single queue."""

    def test_urgent_beats_lane_at_same_instant(self):
        eng = Engine()
        order = []
        a = Event(eng)
        a.add_callback(lambda e: order.append("lane"))
        a.succeed()  # lane, seq 1
        b = Event(eng)
        b.add_callback(lambda e: order.append("urgent"))
        b.succeed(priority=PRIORITY_URGENT)  # heap, seq 2 but prio -1
        eng.run()
        assert order == ["urgent", "lane"]

    def test_lane_interleaves_with_heap_by_seq(self):
        eng = Engine()
        order = []
        for i, (delay, prio) in enumerate([(0.0, 0), (0.0, 1), (0.0, 0)]):
            ev = Event(eng)
            ev.add_callback(lambda e, i=i: order.append(i))
            ev.succeed(delay=delay, priority=prio)
        eng.run()
        # (0,prio0,seq1), (0,prio0,seq3) then (0,prio1,seq2)
        assert order == [0, 2, 1]

    def test_until_pauses_and_resumes_across_lanes(self):
        eng = Engine()
        order = []
        def tick(delay, label):
            ev = Event(eng)
            ev.add_callback(lambda e: order.append(label))
            ev.succeed(delay=delay)
        tick(1.0, "t1")
        tick(2.0, "t2")
        assert eng.run(until=1.5) == 1.5
        tick(0.0, "imm")  # lane entry at t=1.5 while heap holds t=2.0
        assert eng.run() == 2.0
        assert order == ["t1", "imm", "t2"]

    def test_max_events_budget_spans_both_lanes(self):
        eng = Engine()
        Event(eng).succeed()           # lane
        eng.timeout(1.0)               # heap
        with pytest.raises(SimulationError, match="budget"):
            eng.run(max_events=1)
        assert eng.event_count == 1
        eng.run()
        assert eng.event_count == 2


class TestScheduleBatch:
    """Bulk insertion must be observably identical to a schedule() loop,
    and lazy cancellation must keep queue_depth/peek O(live) accurate."""

    @staticmethod
    def _batch_events(eng, n, order, labels=None):
        evs = []
        for i in range(n):
            ev = Event(eng)
            label = labels[i] if labels else i
            ev.add_callback(lambda e, l=label: order.append(l))
            ev._scheduled = True  # the wire path marks batch events itself
            evs.append(ev)
        return evs

    def test_batch_fires_interleaved_with_heap_and_lane(self):
        eng = Engine()
        order = []
        eng.timeout(1.0).add_callback(lambda e: order.append("t1"))
        eng.timeout(3.0).add_callback(lambda e: order.append("t3"))
        imm = Event(eng)
        imm.add_callback(lambda e: order.append("imm"))
        imm.succeed()  # lane entry at t=0
        evs = self._batch_events(eng, 3, order, labels=["b0.5", "b2a", "b2b"])
        eng.schedule_batch([0.5, 2.0, 2.0], evs)
        assert eng.run() == 3.0
        assert order == ["imm", "b0.5", "t1", "b2a", "b2b", "t3"]

    def test_batch_equivalent_to_schedule_loop(self):
        times = [0.0, 0.0, 1.5, 1.5, 2.0]

        def drive(use_batch):
            eng = Engine()
            order = []
            eng.timeout(1.5).add_callback(lambda e: order.append("timer"))
            evs = self._batch_events(eng, len(times), order)
            if use_batch:
                eng.schedule_batch(times, evs)
            else:
                for t, ev in zip(times, evs):
                    eng.schedule(ev, t - eng.now)
            eng.run()
            return order, eng.now, eng.event_count

        assert drive(True) == drive(False)

    def test_empty_batch_is_noop(self):
        eng = Engine()
        eng.schedule_batch([], [])
        assert eng.queue_depth == 0
        assert eng.run() == 0.0

    def test_batch_validation(self):
        eng = Engine()
        evs = self._batch_events(eng, 2, [])
        with pytest.raises(SimulationError, match="times for"):
            eng.schedule_batch([1.0], evs)
        # the diagnosis names the offending index and the violated rule
        for bad, rx in (
            ([2.0, 1.0], r"times\[1\].*decreases from times\[0\]"),
            ([-1.0, 1.0], r"times\[0\].*< now"),
            ([1.0, float("nan")], r"times\[1\].*not finite"),
            ([1.0, float("inf")], r"times\[1\].*not finite"),
        ):
            with pytest.raises(SimulationError, match=rx):
                eng.schedule_batch(bad, evs)

    def test_out_of_order_second_batch_stays_sorted(self):
        # A second batch starting before the queued tail of the first must
        # not break the total order.
        eng = Engine()
        order = []
        a = self._batch_events(eng, 2, order, labels=["a5", "a6"])
        eng.schedule_batch([5.0, 6.0], a)
        b = self._batch_events(eng, 2, order, labels=["b1", "b2"])
        eng.schedule_batch([1.0, 2.0], b)
        assert eng.run() == 6.0
        assert order == ["b1", "b2", "a5", "a6"]

    def test_cancel_inside_batch(self):
        """A callback cancelling a later same-timestamp batch member must
        suppress it mid-drain, and depth/peek must exclude the corpse."""
        eng = Engine()
        order = []
        evs = self._batch_events(eng, 4, order)
        eng.schedule_batch([1.0, 1.0, 1.0, 2.0], evs)
        # first member kills the third (same timestamp, already queued)
        evs[0].add_callback(lambda e: evs[2].cancel())
        depths = []
        evs[1].add_callback(lambda e: depths.append((eng.queue_depth,
                                                     eng.peek())))
        assert eng.run() == 2.0
        assert order == [0, 1, 3]
        # observed mid-run, after the cancel: only evs[3] is live
        assert depths == [(1, 2.0)]
        assert eng.queue_depth == 0
        assert eng.event_count == 3

    def test_cancel_inside_lane_drain(self):
        """Same-instant FIFO lane: cancelling a not-yet-fired lane entry
        from a lane callback must take effect within the drain."""
        eng = Engine()
        order = []
        evs = []
        for i in range(4):
            ev = Event(eng)
            ev.add_callback(lambda e, i=i: order.append(i))
            evs.append(ev)
        for ev in evs:
            ev.succeed()
        evs[0].add_callback(lambda e: evs[2].cancel())
        eng.run()
        assert order == [0, 1, 3]
        assert eng.event_count == 3

    def test_batch_corpses_invisible_to_depth_and_peek(self):
        eng = Engine()
        evs = self._batch_events(eng, 3, [])
        eng.schedule_batch([1.0, 2.0, 3.0], evs)
        assert eng.queue_depth == 3
        evs[0].cancel()
        assert eng.queue_depth == 2
        assert eng.peek() == 2.0  # head corpse skipped
        evs[1].cancel()
        evs[2].cancel()
        assert eng.queue_depth == 0
        assert eng.peek() == float("inf")
        assert eng.run() == 0.0

    def test_fail_inside_lane_drain_surfaces(self):
        """A failure appended to the lane mid-drain fires in seq order
        and surfaces from run()."""
        eng = Engine()
        fired = []
        boom = Event(eng)
        first = Event(eng)
        first.add_callback(lambda e: boom.fail(RuntimeError("late")))
        first.succeed()
        tail = Event(eng)
        tail.add_callback(lambda e: fired.append("tail"))
        tail.succeed()
        with pytest.raises(RuntimeError, match="late"):
            eng.run()
        assert fired == ["tail"]  # tail (seq 2) fires before boom (seq 3)


class TestEngineGuards:
    def test_reentrant_run_rejected(self):
        eng = Engine()

        def body():
            with pytest.raises(SimulationError, match="re-entrant"):
                eng.run()
            yield eng.timeout(0.1)

        eng.process(body())
        eng.run()

    def test_peek_on_empty_queue(self):
        assert Engine().peek() == float("inf")

    def test_run_until_complete_reports_value_of_failed_process(self):
        eng = Engine()

        def bad():
            yield eng.timeout(0.1)
            raise KeyError("boom")

        with pytest.raises(KeyError):
            eng.run_until_complete(eng.process(bad()))
