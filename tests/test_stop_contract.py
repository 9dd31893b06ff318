"""The ``Engine.run(until_done=...)`` stop contract, tested differentially.

``Job.run`` used to drive the engine one ``peek()`` + ``step()`` at a time
and re-test its processes after every event. That driver is kept here (not
in ``src/``) as the reference: the single ``Engine.run(until_done=...)``
call that replaced it must stop after *exactly* the same event — same
``now``, ``event_count``, ``queue_depth`` and ``VariantResult`` — with the
engine's per-event hook absent and present (``ENGINE_SETUPS``), with the
tracer off and on, and with the checkers attached.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.cg import CGParams, run_cg
from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.apps.miniamr import AMRParams, run_miniamr
from repro.apps.streaming import StreamingParams, run_streaming
from repro.harness import CTE_AMD, MARENOSTRUM4, Job, JobSpec, build_job
from repro.sim import Engine, SimulationError
from repro.sim.events import Event
from repro.trace import Tracer, chrome_trace
from tests.conftest import ENGINE_SETUPS


def reference_job_run(self, procs, max_events=50_000_000):
    """``Job.run`` as it was before the engine grew ``until_done``."""
    eng = self.engine
    fired = 0
    pending = list(procs)
    live = [0]

    def _done(_event, live=live):
        live[0] -= 1

    for p in pending:
        if not p.triggered:
            live[0] += 1
            p.add_callback(_done)
    while live[0] > 0:
        if eng.peek() == float("inf"):
            alive = [p.name for p in pending if not p.triggered]
            raise eng.diagnosed(f"job deadlocked; still alive: {alive}")
        if max_events is not None and fired >= max_events:
            raise eng.budget_error(max_events)
        eng.step()
        fired += 1
    for p in pending:
        if p.ok is False:
            raise p.value
    self.collect_metrics()
    if self.analysis is not None:
        self.analysis.finalize()
    return eng.now


def engine_state(eng):
    return eng.now, eng.event_count, eng.queue_depth, eng.peek()


# ----------------------------------------------------------------------
# whole jobs: the four apps x engine set-ups x observers
# ----------------------------------------------------------------------
_MN4 = MARENOSTRUM4.with_cores(4)
SHAPES = {
    "gs-mpi": (run_gauss_seidel, dict(machine=_MN4, variant="mpi"),
               GSParams(rows=64, cols=128, timesteps=2, block_size=32,
                        compute_data=False)),
    "gs-tagaspi": (run_gauss_seidel,
                   dict(machine=_MN4, variant="tagaspi", poll_period_us=50),
                   GSParams(rows=64, cols=128, timesteps=2, block_size=32,
                            compute_data=False)),
    "streaming-tampi": (run_streaming,
                        dict(machine=CTE_AMD.with_cores(4), variant="tampi",
                             poll_period_us=15),
                        StreamingParams(chunks=2, elements_per_chunk=4096,
                                        block_size=512, compute_data=False)),
    "streaming-mpi": (run_streaming,
                      dict(machine=CTE_AMD.with_cores(4), variant="mpi"),
                      StreamingParams(chunks=2, elements_per_chunk=4096,
                                      block_size=512, compute_data=False)),
    "miniamr-tagaspi": (run_miniamr, dict(machine=_MN4, variant="tagaspi"),
                        AMRParams(nx=2, ny=2, nz=2, max_level=1, timesteps=2,
                                  refine_every=2, compute_data=False)),
    "cg-gaspi": (run_cg, dict(machine=_MN4, variant="mpi", backend="gaspi"),
                 CGParams(n=128, iterations=2, compute_data=False)),
    "cg-rma": (run_cg, dict(machine=_MN4, variant="mpi", backend="rma"),
               CGParams(n=128, iterations=2, compute_data=False)),
}
OBSERVERS = {"plain": {}, "perf": {"perf": True}, "check": {"check": "report"}}


def _run_app(monkeypatch, engine_cls, job_run, shape, observe):
    runner, spec_kw, params = SHAPES[shape]
    states = []

    def recording_run(self, *args, **kwargs):
        try:
            return job_run(self, *args, **kwargs)
        finally:
            states.append(engine_state(self.engine))

    monkeypatch.setattr("repro.harness.runner.Engine", engine_cls)
    monkeypatch.setattr(Job, "run", recording_run)
    # shards=0: stay on the single engine under REPRO_SHARDS too
    spec = JobSpec(n_nodes=2, seed=1, shards=0, **spec_kw,
                   **OBSERVERS[observe])
    result = runner(spec, params)
    return states, dataclasses.asdict(result)


@pytest.mark.parametrize("observe", OBSERVERS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("engine_cls", ENGINE_SETUPS)
def test_job_run_stops_where_the_step_driver_did(monkeypatch, engine_cls,
                                                 shape, observe):
    real_run = Job.run
    got = _run_app(monkeypatch, engine_cls, real_run, shape, observe)
    want = _run_app(monkeypatch, engine_cls, reference_job_run, shape, observe)
    assert got[0] and got[0] == want[0]
    assert got[1] == want[1]


@pytest.mark.parametrize("engine_cls", ENGINE_SETUPS)
def test_only_observed_jobs_step_the_engine(monkeypatch, engine_cls):
    """One ``Engine.run`` per job and no ``step()`` or ``peek()``, observed
    or not (the e2e ledger's ``sim.engine.run_calls`` / ``step_calls`` /
    ``peek_calls``). Before PR 16 observed jobs did step; the id is kept
    because the tier-1 floor list tracks it (rename: ROADMAP item 2)."""
    real_run = Job.run
    per_job = []

    def counted_run(self, *args, **kwargs):
        calls = {"step": 0, "peek": 0, "run": 0}
        with pytest.MonkeyPatch.context() as mp:
            for name in calls:
                def counted(eng, *a, _orig=getattr(Engine, name), _n=name,
                            **kw):
                    calls[_n] += 1
                    return _orig(eng, *a, **kw)
                mp.setattr(Engine, name, counted)
            try:
                return real_run(self, *args, **kwargs)
            finally:
                per_job.append(calls)

    states = [_run_app(monkeypatch, engine_cls, counted_run, "gs-tagaspi",
                       observe)[0] for observe in OBSERVERS]
    assert per_job == [{"step": 0, "peek": 0, "run": 1}] * len(OBSERVERS)
    assert states[0] and all(st == states[0] for st in states)


# ----------------------------------------------------------------------
# the contract on bare engines
# ----------------------------------------------------------------------
def _engine(engine_cls, traced):
    return engine_cls(tracer=Tracer(progress_every=None) if traced else None)


def _ticking_job(engine_cls, traced=False, ticks=5, trailing=3):
    """A one-node mpi job whose main process sleeps ``ticks`` times and
    leaves ``trailing`` + 1 events queued behind its completion."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.harness.runner.Engine", engine_cls)
        job = build_job(
            JobSpec(machine=_MN4, n_nodes=1, variant="mpi", shards=0),
            tracer=Tracer(progress_every=None) if traced else None)
    eng = job.engine
    assert eng._observing() == (engine_cls is not Engine)

    def main():
        for _ in range(ticks):
            yield eng.timeout(1e-6)
        eng.event().succeed()  # at `now`, behind the (urgent) completion

    proc = eng.process(main())
    for i in range(trailing):
        eng.timeout(1e-3 * (i + 1))
    return job, [proc]


@pytest.mark.parametrize("traced", [False, True], ids=["fast", "traced"])
@pytest.mark.parametrize("engine_cls", ENGINE_SETUPS)
class TestStopContract:
    def _both(self, engine_cls, traced, **kw):
        out = []
        for run in (Job.run, reference_job_run):
            job, procs = _ticking_job(engine_cls, traced, **kw)
            run(job, procs)
            out.append(engine_state(job.engine))
        return out

    def test_events_behind_the_stop_stay_queued(self, engine_cls, traced):
        got, want = self._both(engine_cls, traced)
        assert got == want
        now, _fired, depth, nxt = got
        assert depth == 4 and nxt == now

    def test_budget_of_exactly_n_succeeds_and_n_minus_one_raises(
            self, engine_cls, traced):
        job, procs = _ticking_job(engine_cls, traced)
        job.run(procs)
        n = job.engine.event_count
        job, procs = _ticking_job(engine_cls, traced)
        job.run(procs, max_events=n)
        assert job.engine.event_count == n
        states = []
        for run in (Job.run, reference_job_run):
            job, procs = _ticking_job(engine_cls, traced)
            with pytest.raises(SimulationError, match="event budget exhausted"):
                run(job, procs, max_events=n - 1)
            states.append(engine_state(job.engine))
        assert states[0] == states[1] and states[0][1] == n - 1

    def test_failing_main_process_reraises(self, engine_cls, traced):
        states = []
        for run in (Job.run, reference_job_run):
            job, procs = _ticking_job(engine_cls, traced)
            eng = job.engine

            def bad():
                yield eng.timeout(2e-6)
                raise RuntimeError("model bug")

            with pytest.raises(RuntimeError, match="model bug"):
                run(job, procs + [eng.process(bad())])
            states.append(engine_state(eng))
        assert states[0] == states[1]

    def test_already_finished_processes_fire_nothing(self, engine_cls, traced):
        job, procs = _ticking_job(engine_cls, traced)
        job.run(procs)
        before = engine_state(job.engine)
        job.run(procs)
        assert engine_state(job.engine) == before
        assert job.engine.run() > before[0]  # the rest still drains later

    def test_deadlock_names_the_survivors(self, engine_cls, traced):
        job, procs = _ticking_job(engine_cls, traced)
        eng = job.engine

        def stuck():
            yield eng.event()

        procs.append(eng.process(stuck()))
        procs[-1].name = "stuck-rank"
        with pytest.raises(SimulationError,
                           match=r"job deadlocked; still alive: \['stuck-rank'\]"):
            job.run(procs)

    def test_watchers_of_an_aborted_run_are_inert(self, engine_cls, traced):
        eng = _engine(engine_cls, traced)

        def ticker(n):
            for _ in range(n):
                yield eng.timeout(1.0)

        first, second = eng.process(ticker(3)), eng.process(ticker(6))
        with pytest.raises(SimulationError, match="budget"):
            eng.run_until_complete(first, max_events=2)
        # `first` completing must not stop the run that waits for `second`
        eng.run_until_complete(second)
        assert first.triggered and second.triggered and eng.now == 6.0
        eng.process(ticker(2))
        assert eng.run() == 8.0  # and a plain run() is not stopped at all

    def test_run_until_complete_messages(self, engine_cls, traced):
        eng = _engine(engine_cls, traced)

        def stuck():
            yield eng.event()

        with pytest.raises(SimulationError,
                           match="deadlock: event queue drained at t=0s"):
            eng.run_until_complete(eng.process(stuck()))


def reference_run(eng, until=None, max_events=None, until_done=None):
    """``Engine.run``'s stop rules as a ``peek()``/``step()`` driver."""
    fired = 0
    while until_done is None or not all(ev.triggered for ev in until_done):
        nxt = eng.peek()
        if nxt == float("inf") or (until is not None and nxt > until):
            if until is not None and until > eng.now:
                eng._now = until  # the clock lands on the limit
            break
        if max_events is not None and fired >= max_events:
            raise eng.budget_error(max_events)
        eng.step()
        fired += 1
    return eng.now


class TestStopInsideEventRuns:
    """The watched event fires in the middle of an immediate-lane storm or
    a ``schedule_batch`` block: the run must end on it, not after it."""

    @staticmethod
    def _execute(drive, delays, batch, watch, max_events=None, until=None):
        eng = Engine()
        log = []

        def make(label):
            ev = Event(eng)
            ev.add_callback(lambda e: log.append((label, eng.now)))
            return ev

        evs = []
        for i, (delay, prio) in enumerate(delays):
            evs.append(make(f"e{i}").succeed(delay=delay, priority=prio))
        tl = [make(f"b{i}") for i in range(len(batch))]
        for ev in tl:
            ev._scheduled = True  # wire-path convention
        eng.schedule_batch(sorted(batch), tl)
        watched = [(evs + tl)[i % len(evs + tl)] for i in watch]
        try:
            drive(eng, until=until, max_events=max_events, until_done=watched)
            outcome = "stopped"
        except SimulationError as exc:
            outcome = str(exc)
        state = engine_state(eng)
        fired_before_stop = len(log)
        eng.run()  # what was left queued, in its fire order
        return outcome, state, fired_before_stop, log

    @given(
        st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0]),
                           st.sampled_from([-1, 0, 0, 1])),
                 min_size=1, max_size=12),
        st.lists(st.sampled_from([0.0, 0.5, 0.5, 1.0, 2.0]),
                 min_size=1, max_size=8),
        st.lists(st.integers(0, 40), min_size=1, max_size=3),
        st.sampled_from([None, 2, 5, 10**6]),
        st.sampled_from([None, 0.0, 0.25, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_stop_is_exact_in_every_lane(self, delays, batch, watch, budget,
                                         until):
        """``until_done`` alone, and combined with ``until`` and
        ``max_events`` in one call: whichever rule ends the run, the clock,
        ``event_count``, ``queue_depth`` and the events left queued are the
        ones the peek/step driver leaves."""
        assert (self._execute(Engine.run, delays, batch, watch, budget, until)
                == self._execute(reference_run, delays, batch, watch, budget,
                                 until))


def test_engine_records_identical_under_run_and_step_driver(monkeypatch):
    """The per-event hook fires inside ``Engine.run``'s loop, not in
    ``step()``: a traced job's engine instants and progress records must
    not depend on which of the two drove it."""
    drivers = {"run": Job.run, "step": reference_job_run}
    runner, spec_kw, params = SHAPES["gs-tagaspi"]

    def exported(driver):
        monkeypatch.setattr(Job, "run", drivers[driver])
        tracer = Tracer(engine_events=True, progress_every=7)
        result = runner(JobSpec(n_nodes=2, seed=1, shards=0, **spec_kw),
                        params, tracer=tracer)
        sim = [r.name for r in tracer.records if r.category == "sim"]
        assert "progress" in sim and "Timeout" in sim
        return (json.dumps(chrome_trace(tracer), sort_keys=True),
                dataclasses.asdict(result))

    assert exported("run") == exported("step")
