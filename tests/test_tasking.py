"""Unit tests for the tasking runtime: dependencies, lifecycle, events,
onready, wait_for_us, and polling services."""

import gc
from functools import partial

import pytest

from repro.sim import Engine
from repro.tasking import (
    Runtime,
    RuntimeConfig,
    TaskingError,
    In,
    Out,
    InOut,
    dep,
    TaskState,
)
from repro.tasking.polling import PollableWork, spawn_polling_service
from repro.tasking.task import BlockOn
from tests.conftest import run_all
from tests.reference.generator_worker import generator_workers


def make_rt(n_cores=2, **cfg):
    eng = Engine()
    rt = Runtime(eng, RuntimeConfig(n_cores=n_cores, **cfg), name="t")
    return eng, rt


def charged(name, log, dur=1e-6):
    def body(task):
        task.charge(dur)
        log.append(name)
    return body


class TestDependencies:
    def test_raw_ordering(self):
        eng, rt = make_rt(n_cores=1)
        log = []

        def main(rt):
            rt.submit(charged("w", log), [Out("x")])
            rt.submit(charged("r1", log), [In("x")])
            rt.submit(charged("r2", log), [In("x")])
            rt.submit(charged("w2", log), [InOut("x")])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert log == ["w", "r1", "r2", "w2"]

    def test_readers_run_concurrently(self):
        eng, rt = make_rt(n_cores=4)
        spans = {}

        def reader(name):
            def body(task):
                spans[name] = eng.now
                task.charge(10e-6)
            return body

        def main(rt):
            rt.submit(charged("w", []), [Out("x")])
            for i in range(3):
                rt.submit(reader(i), [In("x")])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert len(set(spans.values())) == 1  # all started together

    def test_writer_waits_for_all_readers(self):
        eng, rt = make_rt(n_cores=4)
        t = {}

        def main(rt):
            rt.submit(charged("w", []), [Out("x")])
            for i, dur in enumerate([1e-6, 5e-6, 9e-6]):
                def body(task, d=dur, i=i):
                    task.charge(d)
                    t[f"r{i}"] = eng.now
                rt.submit(body, [In("x")])
            def w2(task):
                t["w2_start"] = eng.now
            rt.submit(w2, [InOut("x")])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        # w2 starts only after the slowest reader's completion
        assert t["w2_start"] >= 9e-6

    def test_independent_keys_do_not_order(self):
        eng, rt = make_rt(n_cores=2)
        starts = {}

        def main(rt):
            for key in ("a", "b"):
                def body(task, key=key):
                    starts[key] = eng.now
                    task.charge(5e-6)
                rt.submit(body, [InOut(key)])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert starts["a"] == starts["b"]

    def test_tuple_keys(self):
        eng, rt = make_rt(n_cores=1)
        log = []

        def main(rt):
            rt.submit(charged("w00", log), [Out(("blk", 0, 0))])
            rt.submit(charged("w01", log), [Out(("blk", 0, 1))])
            rt.submit(charged("r", log), [In(("blk", 0, 0)), In(("blk", 0, 1))])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert log[-1] == "r"

    def test_dep_constructor_validates_mode(self):
        with pytest.raises(ValueError):
            dep("bogus", "k")

    def test_deps_compare_and_hash_by_mode_and_key(self):
        assert In(("b", 0)) == dep("in", ("b", 0))
        assert hash(In(("b", 0))) == hash(dep("in", ("b", 0)))
        assert In("x") != Out("x") and Out("x") != InOut("x")
        assert len({In("x"), In("x"), Out("x"), In("y")}) == 3
        assert repr(InOut("x")) == "Dep(mode='inout', key='x')"

    def test_pending_task_costs_at_most_two_tracked_objects(self):
        """A pending task is one Task plus, at its first out-edge, one
        successor list: the shared dependency tuple and body are not
        copied, and no closure is made per task."""
        eng, rt = make_rt()
        deps = (InOut("x"),)

        def work(n, task):
            task.charge(n)

        body = partial(work, 1e-6)
        rt.submit(body, deps)  # creates the region
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(1000):
            rt.submit(body, deps)
        gc.collect()
        assert len(gc.get_objects()) - before <= 2 * 1000
        assert rt.outstanding == 1001


class TestExternalEvents:
    def test_completion_delayed_until_events_fulfilled(self):
        eng, rt = make_rt()
        log = []

        def main(rt):
            def comm(task):
                task.add_event(2)
                log.append(("comm-exec", eng.now))
            t = rt.submit(comm, [Out("buf")])
            rt.submit(charged("successor", log), [In("buf")])

            def fulfiller():
                yield eng.timeout(100e-6)
                t.fulfill_event(1)
                yield eng.timeout(100e-6)
                t.fulfill_event(1)
            eng.process(fulfiller())
            yield from rt.taskwait()
            log.append(("done", eng.now))

        run_all(eng, [rt.spawn_main(main)])
        kinds = [e[0] if isinstance(e, tuple) else e for e in log]
        assert kinds == ["comm-exec", "successor", "done"]
        done_t = [e for e in log if isinstance(e, tuple) and e[0] == "done"][0][1]
        assert done_t >= 200e-6

    def test_overfulfill_raises(self):
        eng, rt = make_rt()

        def main(rt):
            def body(task):
                task.add_event(1)
            t = rt.submit(body, [])
            yield from rt.flush()
            yield eng.timeout(1e-3)
            t.fulfill_event(1)
            with pytest.raises(RuntimeError, match="fulfilling"):
                t.fulfill_event(1)
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])

    def test_task_state_is_finished_while_events_pending(self):
        eng, rt = make_rt()
        states = {}

        def main(rt):
            def body(task):
                task.add_event(1)
            t = rt.submit(body, [])
            yield eng.timeout(1e-3)
            states["mid"] = t.state
            t.fulfill_event(1)
            yield from rt.taskwait()
            states["end"] = t.state

        run_all(eng, [rt.spawn_main(main)])
        assert states["mid"] is TaskState.FINISHED
        assert states["end"] is TaskState.COMPLETED


class TestOnready:
    def test_onready_runs_once_before_body(self):
        eng, rt = make_rt()
        log = []

        def main(rt):
            rt.submit(charged("w", log), [Out("x")])
            rt.submit(
                charged("body", log),
                [In("x")],
                onready=lambda task: log.append("onready"),
            )
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert log == ["w", "onready", "body"]

    def test_onready_pre_event_delays_execution(self):
        eng, rt = make_rt()
        log = []

        def main(rt):
            def onready(task):
                task.add_event(1)  # inside onready => pre-event
                log.append(("onready", eng.now))
            t = rt.submit(lambda task: log.append(("body", eng.now)), [], onready=onready)

            def fulfiller():
                yield eng.timeout(50e-6)
                t.fulfill_pre_event(1)
            eng.process(fulfiller())
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        (o_name, o_t), (b_name, b_t) = log
        assert (o_name, b_name) == ("onready", "body")
        assert b_t >= 50e-6

    def test_onready_sees_current_task(self):
        eng, rt = make_rt()
        seen = []

        def main(rt):
            t = rt.submit(lambda task: None, [],
                          onready=lambda task: seen.append(rt.current_task is task))
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert seen == [True]


class TestGeneratorBodiesAndSleep:
    def test_compute_ordering_in_generator_body(self):
        eng, rt = make_rt(n_cores=1)
        stamps = []

        def main(rt):
            def body(task):
                stamps.append(("begin", eng.now))
                yield task.compute(10e-6)
                stamps.append(("after-compute", eng.now))
            rt.submit(body, [])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert stamps[1][1] - stamps[0][1] == pytest.approx(10e-6)

    def test_wait_for_us_releases_core(self):
        eng, rt = make_rt(n_cores=1)
        log = []

        def main(rt):
            def sleeper(task):
                log.append("sleeper-start")
                yield rt.wait_for_us(100)
                log.append("sleeper-end")
            def quick(task):
                log.append("quick")
            rt.submit(sleeper, [])
            rt.submit(quick, [])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        # 'quick' ran on the single core while the sleeper was off-core
        assert log == ["sleeper-start", "quick", "sleeper-end"]

    def test_wait_for_us_returns_actual_time(self):
        eng, rt = make_rt()
        out = []

        def main(rt):
            def sleeper(task):
                actual = yield rt.wait_for_us(25)
                out.append(actual)
            rt.submit(sleeper, [])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert out[0] >= 25e-6

    def test_bad_yield_type_raises(self):
        eng, rt = make_rt()

        def main(rt):
            def body(task):
                yield "garbage"
            rt.submit(body, [])
            yield from rt.taskwait()

        with pytest.raises(TaskingError, match="expected"):
            run_all(eng, [rt.spawn_main(main)])


class TestPollingService:
    def test_periodic_checks_with_work(self):
        eng, rt = make_rt()
        work = PollableWork(eng)
        checks = []

        def check():
            checks.append(eng.now)
            if len(checks) >= 5:
                work.retire(work.pending)

        spawn_polling_service(rt, check, period_us=50, work=work)
        work.notify_work()

        def main(rt):
            yield eng.timeout(2e-3)

        run_all(eng, [rt.spawn_main(main)])
        assert len(checks) == 5
        gaps = [b - a for a, b in zip(checks, checks[1:])]
        assert all(g >= 50e-6 for g in gaps)

    def test_parked_poller_does_not_spin(self):
        eng, rt = make_rt()
        checks = []
        work = PollableWork(eng)
        spawn_polling_service(rt, lambda: checks.append(eng.now), 50, work)

        def main(rt):
            yield eng.timeout(10e-3)

        run_all(eng, [rt.spawn_main(main)])
        assert checks == []  # never any work registered

    def test_taskwait_ignores_polling_tasks(self):
        eng, rt = make_rt()
        work = PollableWork(eng)
        spawn_polling_service(rt, lambda: None, 50, work)

        def main(rt):
            rt.submit(lambda task: None, [])
            yield from rt.taskwait()  # must not wait for the poller
            return eng.now

        run_all(eng, [rt.spawn_main(main)])


class TestStatsAndMisc:
    def test_label_aggregation(self):
        eng, rt = make_rt()

        def main(rt):
            for _ in range(3):
                rt.submit(lambda task: task.charge(2e-6), [], label="compute")
            rt.submit(lambda task: None, [], label="other")
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert rt.stats.by_label["compute"][0] == 3
        assert rt.stats.by_label["compute"][1] == pytest.approx(6e-6)
        assert rt.stats.tasks_completed == 4

    def test_creation_overhead_charged_to_main(self):
        eng, rt = make_rt(create_overhead=10e-6)

        def main(rt):
            for _ in range(5):
                rt.submit(lambda task: None, [])
            yield from rt.flush()
            return eng.now

        p = rt.spawn_main(main)
        run_all(eng, [p])
        assert p.value >= 50e-6

    def test_submit_after_shutdown_rejected(self):
        eng, rt = make_rt()
        rt.shutdown()
        with pytest.raises(TaskingError):
            rt.submit(lambda task: None, [])

    def test_config_validation(self):
        with pytest.raises(TaskingError):
            RuntimeConfig(n_cores=0)


class TestCallbackWorker:
    """A core runs a plain task from two engine callbacks and makes no
    process; generator bodies keep the generator worker's accounting
    (docs/performance.md, "A worker core is a callback")."""

    N = 12

    def _plain(self, chain):
        """``N`` charged tasks on two cores with a dispatch cost, either
        independent or a dependency chain (each completion then pushes its
        successor to the idle core); returns (events fired, now)."""
        eng, rt = make_rt(n_cores=2, dispatch_overhead=0.5e-6)
        log = []
        for i in range(self.N):
            rt.submit(charged(i, log, dur=2e-6), [InOut("x")] if chain else [])
        eng.run()
        assert log == list(range(self.N)) and rt.outstanding == 0
        return eng.event_count, eng.now

    @pytest.mark.parametrize("chain", [False, True])
    def test_plain_task_fires_two_events(self, chain, monkeypatch):
        made = []
        real = Engine.process
        monkeypatch.setattr(Engine, "process",
                            lambda eng, gen: made.append(gen) or real(eng, gen))
        events, now = self._plain(chain)
        assert made == []  # the runtime creates no Process
        # one start event per core, then a dispatch and a charge per task
        assert events == 2 + 2 * self.N
        with generator_workers():
            old_events, old_now = self._plain(chain)
        assert len(made) == 2  # the oracle's two worker processes
        assert (old_events, old_now) == (2 + 3 * self.N, now)

    def _mixed(self):
        """Sleep, BlockOn and busy-held Event bodies next to plain ones;
        returns each core's and each task's accounting."""
        eng, rt = make_rt(n_cores=2, dispatch_overhead=0.3e-6)
        gate = eng.event()
        fired = eng.event()
        fired.succeed("early")
        got = []

        def sleeper(task):
            task.charge(1e-6)
            got.append((yield rt.wait_for_us(5)))
            task.charge(0.5e-6)

        def parked(task):
            got.append((yield BlockOn(gate)))
            task.charge(2e-6)

        def held(task):
            task.charge(0.25e-6)
            got.append((yield task.compute(3e-6)))
            got.append((yield fired))  # already triggered: no wait

        tasks = []

        def main(rt):
            for body in (sleeper, parked, held, sleeper):
                tasks.append(rt.submit(body, []))
                tasks.append(rt.submit(charged("c", [], dur=1e-6), []))
            yield eng.timeout(20e-6)
            gate.succeed("open")
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        return (eng.now, got,
                [(w.busy_time, w.tasks_run) for w in rt.workers],
                [(t.cpu_time, t.suspended_time, t.started_at, t.finished_at)
                 for t in tasks])

    def test_generator_bodies_account_as_the_oracle(self):
        new = self._mixed()
        with generator_workers():
            old = self._mixed()
        assert new == old
        assert any(busy > 0 for busy, _ in new[2])
        assert any(suspended > 0 for _, suspended, _, _ in new[3])

    def _failing(self, how):
        eng, rt = make_rt(n_cores=2)
        boom = RuntimeError("boom")

        def raises(task):
            task.charge(1e-6)
            raise boom

        def holds_failed(task):
            ev = eng.event()
            ev.fail(boom, delay=2e-6)
            yield ev

        def main(rt):
            rt.submit(charged("c", [], dur=3e-6), [])
            rt.submit(raises if how == "raise" else holds_failed, [])
            yield from rt.taskwait()

        with pytest.raises(RuntimeError) as info:
            run_all(eng, [rt.spawn_main(main)])
        assert info.value is boom
        return eng.now

    @pytest.mark.parametrize("how", ["raise", "held-failed"])
    def test_failure_aborts_at_the_oracle_instant(self, how):
        now = self._failing(how)
        with generator_workers():
            assert self._failing(how) == now
