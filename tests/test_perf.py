"""The performance-diagnosis subsystem (repro.perf).

Covers: the causal instants the instrumentation layers emit, the joined
PerfModel, critical-path extraction for both the task-graph and the
rank-timeline walkers, the wait-state classifier, the POP efficiency
metrics, the perf= runner axis, the CLI, and — as the issue's acceptance
bar — that on a Gauss–Seidel run the dominant wait state is named per
variant and the hybrids' critical-path comm share undercuts blocking MPI.
"""

from __future__ import annotations

import gc
import json
import types

import pytest

from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.harness import JobSpec, MARENOSTRUM4
from repro.perf import (
    CATEGORIES,
    analyze_doc,
    analyze_tracer,
    classify_waits,
    compute_efficiency,
    critical_path,
    dominant_wait,
    model_from_chrome,
    model_from_tracer,
)
from repro.perf.model import NO_INT, NotifyWait, PerfTracer, norm_rank
from repro.trace import TraceRecord, Tracer, chrome_trace, write_chrome_trace

MACH4 = MARENOSTRUM4.with_cores(4)


def gs_trace(variant, *, n_nodes=2, seed=7, rows=64, cols=256, steps=2,
             block=32, poll=25, perf=False, tracer=None):
    if tracer is None:
        tracer = Tracer(progress_every=None)
    spec = JobSpec(machine=MACH4, n_nodes=n_nodes, variant=variant,
                   seed=seed, poll_period_us=poll, perf=perf)
    params = GSParams(rows=rows, cols=cols, timesteps=steps,
                      block_size=block, compute_data=False)
    res = run_gauss_seidel(spec, params, tracer=tracer)
    return res, tracer


@pytest.fixture(scope="module")
def tagaspi_trace():
    return gs_trace("tagaspi")


@pytest.fixture(scope="module")
def tampi_trace():
    return gs_trace("tampi")


@pytest.fixture(scope="module")
def mpi_trace():
    return gs_trace("mpi")


class TestCausalInstants:
    """The instrumentation layers emit the causal edges the model joins."""

    def test_task_edges(self, tampi_trace):
        _, tracer = tampi_trace
        submits = [r for r in tracer.records
                   if r.category == "tasking" and r.name == "task_submit"]
        dones = [r for r in tracer.records
                 if r.category == "tasking" and r.name == "task_done"]
        assert submits and dones
        assert all("uid" in r.args and "preds" in r.args for r in submits)
        assert any(r.args["preds"] for r in submits)
        assert all(r.args["finished"] <= r.t0 for r in dones)

    def test_wire_edges_pair_up(self, mpi_trace):
        _, tracer = mpi_trace
        sends = {r.args["eid"] for r in tracer.records
                 if r.category == "net" and r.name == "msg_send"}
        delivers = {r.args["eid"] for r in tracer.records
                    if r.category == "net" and r.name == "msg_deliver"}
        assert sends and delivers <= sends
        # edge ids are cluster-local and dense from 0
        assert min(sends) == 0 and max(sends) == len(sends) - 1

    def test_notification_edges(self, tagaspi_trace):
        _, tracer = tagaspi_trace
        arrivals = [r for r in tracer.records
                    if r.category == "gaspi" and r.name == "notify_arrival"]
        fulfilled = [r for r in tracer.records
                     if r.category == "tagaspi" and r.name == "notify_fulfilled"]
        submits = [r for r in tracer.records
                   if r.category == "tagaspi" and r.name == "op_submit"]
        assert arrivals and fulfilled and submits
        assert all("notif_id" in r.args and "sent_at" in r.args
                   for r in arrivals)
        assert all("uid" in r.args for r in submits)

    def test_no_process_global_ids_in_trace(self, tagaspi_trace):
        """Message/request uids are process-global (they differ between an
        isolated run and a suite run) and must never leak into traces."""
        _, tracer = tagaspi_trace
        for rec in tracer.records:
            if rec.category == "net":
                assert "uid" not in rec.args

    def test_disabled_tracer_costs_nothing(self):
        a, _ = gs_trace("tagaspi")
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="tagaspi",
                       seed=7, poll_period_us=25)
        params = GSParams(rows=64, cols=256, timesteps=2, block_size=32,
                          compute_data=False)
        b = run_gauss_seidel(spec, params)  # no tracer at all
        assert a.sim_time == b.sim_time


class TestPerfModel:
    def test_rank_normalization(self):
        assert norm_rank("rank3") == 3
        assert norm_rank("rank 12") == 12
        assert norm_rank(5) == 5
        assert norm_rank("global") == "global"

    def test_tasks_join_onto_integer_ranks(self, tampi_trace):
        _, tracer = tampi_trace
        model = model_from_tracer(tracer)
        assert model.is_tasking
        assert model.completed_tasks
        assert all(isinstance(t.rank, int) for t in model.completed_tasks)

    def test_notify_waits_join_producers(self, tagaspi_trace):
        _, tracer = tagaspi_trace
        model = model_from_tracer(tracer)
        waits = [rv.notify_waits.record(rank, i)
                 for rank, rv in model.ranks.items()
                 for i in range(len(rv.notify_waits))]
        waits = [w for w in waits if not w.immediate]
        assert waits
        joined = [w for w in waits if w.producer_uid is not None]
        assert joined
        for w in joined:
            assert w.arrival_at is not None
            assert w.submit_at <= w.arrival_at <= w.fulfilled_at + 1e-12
            # the producer resolves to a real completed task
            producers = model.tasks[w.producer_rank]
            assert w.producer_uid in producers
            assert producers.completed[w.producer_uid] > 0.0

    def test_chrome_round_trip_gives_same_model(self, tagaspi_trace):
        _, tracer = tagaspi_trace
        m1 = model_from_tracer(tracer)
        m2 = model_from_chrome(chrome_trace(tracer))
        assert ({r: sorted(tt.order) for r, tt in m1.tasks.items()}
                == {r: sorted(tt.order) for r, tt in m2.tasks.items()})
        assert m1.sorted_ranks() == m2.sorted_ranks()
        assert m1.makespan == pytest.approx(m2.makespan, rel=1e-9)

    def test_mpi_model_is_not_tasking(self, mpi_trace):
        _, tracer = mpi_trace
        model = model_from_tracer(tracer)
        assert not model.is_tasking
        assert any(rv.compute for rv in model.ranks.values())
        assert any(rv.blocked for rv in model.ranks.values())


class TestCriticalPath:
    def test_path_is_contiguous_and_positive(self, tagaspi_trace):
        _, tracer = tagaspi_trace
        path = critical_path(model_from_tracer(tracer))
        assert path.segments
        for seg in path.segments:
            assert seg.t1 >= seg.t0
            assert seg.category in CATEGORIES
        # segments are in time order and the path spans a meaningful
        # fraction of the makespan
        starts = [s.t0 for s in path.segments]
        assert starts == sorted(starts)
        assert path.length() >= 0.5 * path.makespan

    def test_shares_sum_to_one(self, tampi_trace):
        _, tracer = tampi_trace
        path = critical_path(model_from_tracer(tracer))
        assert sum(path.shares().values()) == pytest.approx(1.0)

    def test_mpi_path_partitions_last_rank(self, mpi_trace):
        _, tracer = mpi_trace
        path = critical_path(model_from_tracer(tracer))
        assert path.segments
        shares = path.shares()
        assert shares["compute"] > 0.0
        assert shares["comm"] + shares["lock_wait"] > 0.0
        # a single rank's timeline: all segments on one rank
        assert len({s.rank for s in path.segments}) == 1

    def test_tagaspi_path_crosses_ranks(self, tagaspi_trace):
        """The notification producer jump must take the path across rank
        boundaries (a single-rank path means every remote wait was charged
        locally, the bug the jump exists to fix)."""
        _, tracer = tagaspi_trace
        path = critical_path(model_from_tracer(tracer))
        assert len({s.rank for s in path.segments}) > 1

    def test_deterministic(self, tagaspi_trace):
        _, tracer = tagaspi_trace
        m = model_from_tracer(tracer)
        assert critical_path(m).segments == critical_path(m).segments


class TestWaitStates:
    def test_mpi_run_sees_late_senders(self, mpi_trace):
        _, tracer = mpi_trace
        waits = classify_waits(model_from_tracer(tracer))
        assert waits
        assert sum(w.late_sender for w in waits) > 0.0
        assert dominant_wait(waits) in ("late_sender", "lock_wait")

    def test_tagaspi_run_sees_notification_waits(self, tagaspi_trace):
        _, tracer = tagaspi_trace
        waits = classify_waits(model_from_tracer(tracer))
        assert sum(w.late_notification + w.poll_detection
                   for w in waits) > 0.0

    def test_per_rank_dominant_label(self, mpi_trace):
        _, tracer = mpi_trace
        waits = classify_waits(model_from_tracer(tracer))
        from repro.perf.waitstates import WAIT_STATES

        for w in waits:
            assert w.dominant() in WAIT_STATES + ("none",)
            assert w.total() == pytest.approx(sum(w.as_dict().values()))

    def test_dominant_wait_none_for_empty_model(self):
        tr = Tracer(progress_every=None)
        waits = classify_waits(model_from_tracer(tr))
        assert dominant_wait(waits) == "none"


class TestEfficiency:
    def test_metrics_in_unit_range(self, tampi_trace):
        _, tracer = tampi_trace
        m = model_from_tracer(tracer)
        eff = compute_efficiency(m, critical_path(m), cores_per_rank=4)
        for v in (eff.parallel_efficiency, eff.load_balance,
                  eff.comm_efficiency, eff.serialization_efficiency):
            assert 0.0 <= v <= 1.0 + 1e-9
        assert eff.parallel_efficiency == pytest.approx(
            eff.load_balance * eff.comm_efficiency)

    def test_mpi_metrics(self, mpi_trace):
        _, tracer = mpi_trace
        m = model_from_tracer(tracer)
        eff = compute_efficiency(m, critical_path(m), cores_per_rank=1)
        assert 0.0 < eff.comm_efficiency <= 1.0 + 1e-9


class TestRunnerAxis:
    def test_perf_axis_populates_extra(self):
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="tagaspi",
                       seed=7, poll_period_us=25, perf=True)
        params = GSParams(rows=64, cols=256, timesteps=2, block_size=32,
                          compute_data=False)
        res = run_gauss_seidel(spec, params)
        for key in ("perf_parallel_efficiency", "perf_load_balance",
                    "perf_comm_efficiency", "perf_serialization_efficiency",
                    "perf_cp_comm_share", "perf_dominant_wait"):
            assert key in res.extra
        assert isinstance(res.extra["perf_dominant_wait"], str)

    def test_run_variants_perf_axis(self):
        from repro.harness.sweep import run_variants

        params = GSParams(rows=48, cols=96, timesteps=2, block_size=24,
                          compute_data=False)
        results = run_variants(run_gauss_seidel, MACH4, 2, params,
                               variants=("mpi", "tampi"), perf=True, seed=3)
        assert set(results) == {"mpi", "tampi"}
        for per_fault in results.values():
            for res in per_fault.values():
                assert "perf_dominant_wait" in res.extra


def _two_feed_cases():
    from repro.apps.cg import CGParams, run_cg
    from repro.apps.miniamr import AMRParams, run_miniamr
    from repro.apps.streaming import StreamingParams, run_streaming

    gs = GSParams(rows=64, cols=256, timesteps=2, block_size=32,
                  compute_data=False)
    hybrid = dict(machine=MACH4, n_nodes=2, seed=7, poll_period_us=25)
    cases = [(f"gs-{v}", run_gauss_seidel, dict(hybrid, variant=v), gs)
             for v in ("mpi", "tampi", "tagaspi")]
    cases.append(("streaming-tagaspi", run_streaming,
                  dict(hybrid, variant="tagaspi"),
                  StreamingParams(chunks=4, elements_per_chunk=512,
                                  block_size=128, compute_data=False)))
    cases.append(("miniamr-tagaspi", run_miniamr,
                  dict(hybrid, variant="tagaspi"),
                  AMRParams(nx=2, ny=2, nz=2, max_level=1, timesteps=6,
                            refine_every=3, variables=4, stages=2,
                            n_objects=1, compute_data=False)))
    cases.append(("cg-gaspi", run_cg,
                  dict(machine=MACH4, n_nodes=1, variant="mpi",
                       backend="gaspi"),
                  CGParams(n=48, iterations=6)))
    return [pytest.param(*c[1:], id=c[0]) for c in cases]


def _reachable(root):
    """Every object reachable from ``root`` by ``gc.get_referents``,
    stopping at types, modules and functions (the interpreter, not the
    model). ``seen`` holds every object it keys, so no id is reused."""
    stop = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType)
    seen = {id(root): root}  # analysis-ok: objects pinned by seen
    todo = [root]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            key = id(ref)  # analysis-ok: objects pinned by seen
            if key not in seen and not isinstance(ref, stop):
                seen[key] = ref
                todo.append(ref)
    return list(seen.values())


def _kept(model):
    """docs/perf.md's table, counted: span rows per rank, wire keys,
    joined notification waits and tasks."""
    spans = sum(len(bucket) for rv in model.ranks.values()
                for bucket in (rv.blocked, rv.mpi_calls, rv.compute,
                               rv.gaspi_waits, rv.detects, rv.iwaits))
    waits = sum(len(rv.notify_waits) for rv in model.ranks.values())
    tasks = sum(len(tt.order) for tt in model.tasks.values())
    return spans, len(model.wire), waits, tasks


class TestOneBuilderTwoFeeds:
    """The online fold (PerfTracer) and the replay of a recording Tracer
    are the same builder, so their reports are equal to the last bit."""

    @pytest.mark.parametrize("runner,spec_kw,params", _two_feed_cases())
    def test_online_report_equals_replayed_report(self, runner, spec_kw,
                                                  params):
        spec = JobSpec(**spec_kw)
        online, recording = PerfTracer(), Tracer(progress_every=None)
        res_on = runner(spec, params, tracer=online)
        res_rec = runner(spec, params, tracer=recording)
        assert res_on.sim_time == res_rec.sim_time
        assert online.records == [] and recording.records
        kw = dict(variant=spec.variant, cores_per_rank=spec.cores_per_rank)
        a, b = analyze_tracer(online, **kw), analyze_tracer(recording, **kw)
        assert a.extra_metrics() == b.extra_metrics()
        assert a.path.segments == b.path.segments
        assert a.model.makespan == b.model.makespan > 0.0
        # and the perf=True axis (no tracer passed) is the online feed
        res = runner(JobSpec(**spec_kw, perf=True), params)
        assert {k: v for k, v in res.extra.items()
                if k.startswith("perf_")} == a.extra_metrics()

    def test_user_tracer_with_perf_records_and_replays(self):
        res, tracer = gs_trace("tagaspi", perf=True)
        assert tracer.records
        assert res.extra["perf_cp_length_s"] == \
            analyze_tracer(tracer).extra_metrics()["perf_cp_length_s"]

    def test_perf_job_keeps_no_records_and_only_joined_ones(self, monkeypatch):
        import repro.apps.gauss_seidel.runner as gs_runner

        jobs = []
        real = gs_runner.build_job

        def spy(spec, tracer=None):
            jobs.append(real(spec, tracer=tracer))
            return jobs[-1]

        monkeypatch.setattr(gs_runner, "build_job", spy)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="tagaspi", seed=7,
                       poll_period_us=25, perf=True)
        params = GSParams(rows=64, cols=256, timesteps=2, block_size=32,
                          compute_data=False)
        run_gauss_seidel(spec, params)
        tracer = jobs[0].tracer
        assert isinstance(tracer, PerfTracer)
        assert tracer.records == [] and len(tracer) == 0
        model = tracer.model
        # no record and no emit kwargs dict is reachable: the only
        # str-keyed dicts left are instances' attribute dicts
        reachable = _reachable(tracer)
        assert not [o for o in reachable if isinstance(o, TraceRecord)]
        attrs = [vars(o) for o in reachable if hasattr(o, "__dict__")]
        assert not [d for d in reachable
                    if isinstance(d, dict) and any(isinstance(k, str)
                                                   for k in d)
                    and not any(d is a for a in attrs)]
        # every uid a rank's iwait rows name is a task of that rank
        for rank, rv in model.ranks.items():
            assert all(u == NO_INT or u in model.tasks[rank]
                       for u in rv.iwaits.uid)
        # the recording twin replays into the same compact entries
        _, recording = gs_trace("tagaspi", perf=True)
        replayed = model_from_tracer(recording)
        assert model.ranks == replayed.ranks
        assert model.wire == replayed.wire
        assert model.tasks == replayed.tasks
        # pinned: of the 990 records this job emits, the model keeps 120
        # span rows (40 gaspi submission waits, 80 detect intervals), no
        # wire key (GASPI messages carry no tag; the 40 arrivals and 40
        # submits are folded into 32 notification waits), and 104 tasks
        assert _kept(model) + (len(recording.records),) == \
            (120, 0, 32, 104, 990)

    def test_kept_objects_do_not_grow_with_tasks(self):
        """The model is columns, not objects: after a TAMPI job at two and
        at four timesteps (twice the tasks, iwaits and MPI calls), the
        objects reachable from its PerfTracer are as many."""
        kept, reachable = [], []
        for steps in (2, 4):
            tracer = PerfTracer()
            gs_trace("tampi", steps=steps, tracer=tracer)
            model = model_from_tracer(tracer)
            kept.append(_kept(model))
            reachable.append(len(_reachable(tracer)))
        (spans2, _, _, tasks2), (spans4, _, _, tasks4) = kept
        assert tasks4 > 1.8 * tasks2 and spans4 > 1.8 * spans2
        assert reachable[1] == reachable[0]

    def test_finish_is_idempotent(self):
        _, tracer = gs_trace("tagaspi", tracer=PerfTracer())
        first = analyze_tracer(tracer).extra_metrics()
        assert analyze_tracer(tracer).extra_metrics() == first

    def test_perf_tracer_validates_spans_and_counts_every_t1(self):
        tracer = PerfTracer()
        with pytest.raises(ValueError, match="t1=1.0 < t0=2.0"):
            tracer.span("mpi", "isend", 2.0, 1.0, rank=0)
        # records the model otherwise ignores still move the makespan
        tracer.span("net", "eager.data", 0.0, 3.0, rank=0)
        tracer.counter("sim", "queue_depth", 4.0, 7.0)
        tracer.instant("faults", "rts_retry", 5.0, rank=1)
        assert tracer.model.makespan == 5.0
        assert tracer.records == [] and not tracer.model.ranks

    def test_typed_emits_are_the_generic_records(self):
        """A typed emit's base implementation is the generic record: all
        eight fields, args key order included; and the PerfTracer override
        leaves the model state the replay of those records does."""
        from types import SimpleNamespace as NS

        from repro.network.message import Message
        from repro.perf.model import model_from_records

        engine = NS(now=2.5)
        runtime = NS(name="rank3", engine=engine)
        worker = NS(runtime=runtime, engine=engine, lane="w1")
        task = NS(label="halo", uid=17, created_at=0.5, ready_at=1.0,
                  started_at=1.5, finished_at=2.0, completed_at=2.5,
                  cpu_time=0.25)
        req = NS(kind="recv", peer=1, tag=7, sent_at=0.75)
        late = NS(op="write_notify", submitted_at=1.0, done_at=1.75)
        prompt = NS(op="write", submitted_at=2.0, done_at=2.5)
        pending = NS(seg_id=0, notif_id=5, task=task, registered_at=1.25)
        notify = Message(1, 3, "gaspi", "notify", 8,
                         meta={"remote_seg": 0, "notif_id": 5})
        notify.injected_at = 1.5
        tagged = Message(1, 3, "mpi", "eager", 64, meta={"tag": 7})
        params = {"dest": 3, "remote_seg": 0, "notif_id": 5, "size": 8}

        def emit(tr):
            tr.task_submit(runtime, task, [NS(uid=4), NS(uid=9)])
            tr.ready_wait(worker, task)
            tr.onready_wait(runtime, task, 0.75)
            tr.event_wait(runtime, task)
            tr.task_on_core(worker, task, 1.5, "sleep")
            tr.task_done(runtime, task)
            tr.mpi_call(3, "testsome", 2.0, 2.25, 0.125)
            tr.iwait_pending(3, task, req, 1.25, 2.25, 0.125)
            tr.op_submit(3, task, "write_notify", params, 1.0)
            tr.notify_immediate(3, task, 0, 4, 2.5)
            tr.op_retired(3, late, 1, 17, 2.5)
            tr.op_retired(3, prompt, 0, None, 2.5)
            tr.notify_fulfilled(3, pending, 2.5)
            tr.gaspi_submit(3, "write_notify", 1.0, 2.25, 0.125, 1, 8, 2)
            tr.notify_arrival(3, notify, 2.0)
            tr.wire_span(notify, 1.5, 2.0, False, 1.625)
            tr.msg_send(tagged, 8, 1.5)
            tr.msg_deliver(tagged, 8, 2.0)

        typed, generic = Tracer(), Tracer()
        emit(typed)
        generic.instant("tasking", "task_submit", 2.5, rank="rank3",
                        task="halo", uid=17, preds=(4, 9))
        generic.span("tasking", "ready_wait", 1.0, 2.5, rank="rank3",
                     lane="w1", task="halo", uid=17)
        generic.span("tasking", "onready_wait", 0.75, 2.5, rank="rank3",
                     task="halo", uid=17)
        generic.span("tasking", "event_wait", 2.0, 2.5, rank="rank3",
                     task="halo", uid=17)
        generic.span("tasking", "halo", 1.5, 2.5, rank="rank3", lane="w1",
                     uid=17, outcome="sleep")
        generic.instant("tasking", "task_done", 2.5, rank="rank3",
                        task="halo", uid=17, created=0.5, ready=1.0,
                        started=1.5, finished=2.0, cpu=0.25)
        generic.span("mpi", "testsome", 2.0, 2.25, rank=3, wait=0.125)
        generic.span("tampi", "iwait.pending", 1.25, 2.25, rank=3,
                     task="halo", uid=17, kind="recv", peer=1, tag=7,
                     sent_at=0.75, lock_wait=0.125)
        generic.instant("tagaspi", "op_submit", 1.0, rank=3, uid=17,
                        op="write_notify", dest=3, seg=0, notif_id=5)
        generic.instant("tagaspi", "notify_immediate", 2.5, rank=3, seg=0,
                        notif_id=4, uid=17)
        generic.span("tagaspi", "write_notify.inflight", 1.0, 1.75, rank=3,
                     queue=1, uid=17)
        generic.span("tagaspi", "write_notify.detect", 1.75, 2.5, rank=3,
                     queue=1, uid=17)
        generic.span("tagaspi", "write.inflight", 2.0, 2.5, rank=3,
                     queue=0, uid=None)
        generic.instant("tagaspi", "notify_fulfilled", 2.5, rank=3, seg=0,
                        notif_id=5, uid=17, registered_at=1.25)
        generic.span("gaspi", "write_notify", 1.0, 2.25, rank=3, queue=1,
                     count=8, wait=0.125)
        generic.counter("gaspi", "q1.depth", 2.25, 2.0, rank=3)
        generic.instant("gaspi", "notify_arrival", 2.0, rank=3, src=1,
                        seg=0, notif_id=5, sent_at=1.5)
        generic.span("net", "gaspi.notify", 1.5, 2.0, rank=1, dst=3,
                     nbytes=8, intra=False, local_done=1.625)
        generic.instant("net", "msg_send", 1.5, rank=1, dst=3,
                        protocol="mpi", kind="eager", nbytes=64, eid=8,
                        tag=7)
        generic.instant("net", "msg_deliver", 2.0, rank=3, src=1,
                        protocol="mpi", kind="eager", eid=8)
        assert typed.records == generic.records
        assert ([list(r.args) for r in typed.records]
                == [list(r.args) for r in generic.records])
        # and the PerfTracer overrides feed the same model state
        online = PerfTracer()
        emit(online)
        assert online.records == []
        model = online.model.finish()
        replayed = model_from_records(typed.records)
        assert model.tasks == replayed.tasks
        assert model.ranks == replayed.ranks
        assert model.wire == replayed.wire
        assert model.makespan == replayed.makespan == 2.5
        assert _kept(model) == (4, 1, 2, 1)
        assert model.tasks[3].record(17).preds == (4, 9)
        assert model.ranks[3].lanes == {"w1"}
        assert list(model.wire.rows()) == [(1, 3, 7, 1.5, 2.0)]
        nw = model.ranks[3].notify_waits
        assert nw.record(3, 1) == NotifyWait(
            3, 0, 5, 17, 1.25, 2.5, arrival_at=2.0, sent_at=1.5,
            producer_rank=3, producer_uid=17, submit_at=1.0)
        assert nw.record(3, 0).immediate

    def test_typed_msg_send_is_the_generic_record(self):
        """``Tracer.msg_send`` records what ``Cluster.send`` used to build
        by hand, args key order included; the PerfTracer override keeps
        the wire key the replay keeps."""
        from repro.network.message import Message
        from repro.perf.model import model_from_records

        metas = ({"tag": 3}, {"remote_seg": 0, "notif_id": 2},
                 {"tag": 4, "notif_id": 5}, {}, None)
        typed, generic, online = Tracer(), Tracer(), PerfTracer()
        for eid, meta in enumerate(metas):
            msg = Message(1, 4, "mpi", "eager", 72, meta=meta)
            typed.msg_send(msg, eid, 1.5 + eid)
            online.msg_send(msg, eid, 1.5 + eid)
            online.instant("net", "msg_deliver", 9.0 + eid, rank=4, eid=eid)
        kw = dict(rank=1, dst=4, protocol="mpi", kind="eager", nbytes=72)
        generic.instant("net", "msg_send", 1.5, **kw, eid=0, tag=3)
        generic.instant("net", "msg_send", 2.5, **kw, eid=1, notif_id=2)
        generic.instant("net", "msg_send", 3.5, **kw, eid=2, tag=4,
                        notif_id=5)
        generic.instant("net", "msg_send", 4.5, **kw, eid=3)
        generic.instant("net", "msg_send", 5.5, **kw, eid=4)
        assert typed.records == generic.records
        assert ([list(r.args) for r in typed.records]
                == [list(r.args) for r in generic.records])
        delivers = [TraceRecord("instant", "net", "msg_deliver", 4, None,
                                9.0 + eid, 9.0 + eid, {"eid": eid})
                    for eid in range(len(metas))]
        replayed = model_from_records(typed.records + delivers)
        assert online.model.finish().wire == replayed.wire
        assert list(replayed.wire.rows()) == [(1, 4, 3, 1.5, 9.0),
                                              (1, 4, 4, 3.5, 11.0)]
        assert online.model.makespan == replayed.makespan == 13.0


class TestAcceptance:
    """The issue's acceptance bar, scaled to test size: the report names a
    dominant wait state per variant, and the hybrids' critical-path comm
    share is strictly below blocking MPI's on a communication-bound run."""

    @pytest.fixture(scope="class")
    def reports(self):
        out = {}
        for variant, block in (("mpi", 512), ("tampi", 128), ("tagaspi", 128)):
            spec = JobSpec(machine=MARENOSTRUM4, n_nodes=8, seed=1,
                           variant=variant, poll_period_us=50, perf=True)
            params = GSParams(rows=512, cols=4096, timesteps=3,
                              block_size=block, compute_data=False)
            out[variant] = run_gauss_seidel(spec, params)
        return out

    def test_dominant_wait_named_per_variant(self, reports):
        from repro.perf.waitstates import WAIT_STATES

        for variant, res in reports.items():
            dom = res.extra["perf_dominant_wait"]
            assert dom in WAIT_STATES, variant

    def test_hybrid_cp_comm_share_below_mpi(self, reports):
        mpi = reports["mpi"].extra["perf_cp_comm_share"]
        assert reports["tampi"].extra["perf_cp_comm_share"] < mpi
        assert reports["tagaspi"].extra["perf_cp_comm_share"] < mpi


class TestCLI:
    def test_cli_summary_and_export(self, tagaspi_trace, tmp_path, capsys):
        from repro.perf.cli import main

        _, tracer = tagaspi_trace
        trace_path = str(tmp_path / "trace.json")
        write_chrome_trace(tracer, trace_path)
        out_path = str(tmp_path / "trace_cp.json")
        rc = main([trace_path, "--variant", "tagaspi",
                   "--export", out_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "wait states" in out
        assert "efficiency" in out
        with open(out_path) as fh:
            doc = json.load(fh)
        lanes = [ev for ev in doc["traceEvents"]
                 if ev.get("ph") == "X" and ev.get("cat") == "perf"]
        assert lanes
        assert all(ev["name"].startswith("cp.") for ev in lanes)
        names = [ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev.get("ph") == "M" and ev["name"] == "process_name"]
        assert "critical path" in names

    def test_cli_missing_file(self, tmp_path, capsys):
        from repro.perf.cli import main

        rc = main([str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

