"""The ``Engine.run(until_done=...)`` stop contract, tested differentially.

``Job.run`` used to drive the engine one ``peek()`` + ``step()`` at a time
and re-test its processes after every event. That driver is kept here (not
in ``src/``) as the reference: the single ``Engine.run(until_done=...)``
call that replaced it must stop after *exactly* the same event — same
``now``, ``event_count``, ``queue_depth`` and ``VariantResult`` — on both
engines, with the tracer off and on, and with the checkers attached.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.cg import CGParams, run_cg
from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.apps.miniamr import AMRParams, run_miniamr
from repro.apps.streaming import StreamingParams, run_streaming
from repro.harness import CTE_AMD, MARENOSTRUM4, Job, JobSpec, build_job
from repro.sim import BatchedEngine, ObjectEngine, SimulationError
from repro.sim.events import Event
from repro.trace import Tracer

ENGINES = [ObjectEngine, BatchedEngine]


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
# whole jobs: the four apps x engines x observers
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
    # shards=0: stay on the single engine under REPRO_ENGINE=sharded too
    spec = JobSpec(n_nodes=2, seed=1, shards=0, **spec_kw,
                   **OBSERVERS[observe])
    result = runner(spec, params)
    return states, dataclasses.asdict(result)


@pytest.mark.parametrize("observe", OBSERVERS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.__name__)
def test_job_run_stops_where_the_step_driver_did(monkeypatch, engine_cls,
                                                 shape, observe):
    real_run = Job.run
    got = _run_app(monkeypatch, engine_cls, real_run, shape, observe)
    want = _run_app(monkeypatch, engine_cls, reference_job_run, shape, observe)
    assert got[0] and got[0] == want[0]
    assert got[1] == want[1]


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.__name__)
def test_only_observed_jobs_step_the_engine(monkeypatch, engine_cls):
    """One ``Engine.run`` per job either way; ``step()`` is reached only
    through the traced loop, once per event (the e2e ledger's
    ``sim.engine.step_calls`` / ``run_calls``)."""
    calls = {"step": 0, "run": 0}
    for name in calls:
        def counted(self, *a, _orig=getattr(engine_cls, name), _n=name, **kw):
            calls[_n] += 1
            return _orig(self, *a, **kw)
        monkeypatch.setattr(engine_cls, name, counted)
    (plain,), _ = _run_app(monkeypatch, engine_cls, Job.run, "gs-tagaspi",
                           "plain")
    assert calls == {"step": 0, "run": 1}
    (observed,), _ = _run_app(monkeypatch, engine_cls, Job.run, "gs-tagaspi",
                              "perf")
    assert calls == {"step": observed[1], "run": 2}
    assert observed == plain


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
    assert type(eng) is engine_cls

    def main():
        for _ in range(ticks):
            yield eng.timeout(1e-6)
        eng.event().succeed()  # at `now`, behind the (urgent) completion

    proc = eng.process(main())
    for i in range(trailing):
        eng.timeout(1e-3 * (i + 1))
    return job, [proc]


@pytest.mark.parametrize("traced", [False, True], ids=["fast", "traced"])
@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.__name__)
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


class TestStopInsideEventRuns:
    """The watched event fires in the middle of an immediate-lane storm or
    a timeline batch: the batched run must end on it, not after the run."""

    @staticmethod
    def _execute(engine_cls, delays, batch, watch, step_driver,
                 max_events=None):
        eng = engine_cls()
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
        if step_driver:
            while not all(ev.triggered for ev in watched):
                eng.step()
        else:
            eng.run(until_done=watched, max_events=max_events)
        return log, engine_state(eng)

    @given(
        st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0]),
                           st.sampled_from([-1, 0, 0, 1])),
                 min_size=1, max_size=12),
        st.lists(st.sampled_from([0.0, 0.5, 0.5, 1.0, 2.0]),
                 min_size=1, max_size=8),
        st.lists(st.integers(0, 40), min_size=1, max_size=3),
        st.sampled_from([None, 10**6]),  # unbounded / bounded loop
    )
    @settings(max_examples=150, deadline=None)
    def test_stop_is_exact_in_every_lane(self, delays, batch, watch, budget):
        want = self._execute(ObjectEngine, delays, batch, watch, True)
        for engine_cls in ENGINES:
            assert self._execute(engine_cls, delays, batch, watch, False,
                                 budget) == want
        assert self._execute(BatchedEngine, delays, batch, watch, True) == want


class TestTimelineLaneStaysBounded:
    def test_streaming_batches_do_not_grow_the_ring(self):
        """Jobs now run inside ``run()``: a job that keeps appending
        ``schedule_batch`` blocks ahead of the head, so the timeline lane
        never drains, must still reclaim its consumed prefix."""
        eng = BatchedEngine()
        block, rounds = 64, 400
        peak = [0]

        def refill(_event):
            peak[0] = max(peak[0], len(eng._tl_times))
            if refill.left:
                refill.left -= 1
                push()

        def push():
            evs = [Event(eng) for _ in range(block)]
            for ev in evs:
                ev._scheduled = ev._ok = True
            # refill half-way through the block: the lane never drains
            evs[block // 2].callbacks.append(refill)
            t0 = eng._tl_times[-1] if eng._tl_times else eng.now
            eng.schedule_batch([t0 + 1e-6 * (i + 1) for i in range(block)],
                               evs)

        refill.left = rounds
        push()
        eng.run()
        assert eng.event_count == block * (rounds + 1)
        # live entries never exceed 1.5 blocks; without compaction under
        # run() the ring would have reached block * rounds slots
        assert peak[0] <= 4 * block
