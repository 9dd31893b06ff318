"""The correctness-analysis subsystem (docs/analysis.md): the vector-clock
RMA race detector, the wait-for deadlock diagnoser, the finalize-time
resource lint, the static determinism lint, and the harness ``check=``
axis. The acceptance bar: known-racy programs are flagged, deadlocks are
named, and every paper variant is race/deadlock-free under strict mode."""

import gc
import os
import runpy
import textwrap
import weakref

import numpy as np
import pytest

from repro.analysis import (
    SEV_ERROR,
    SEV_WARNING,
    AnalysisError,
    AnalysisPipeline,
    lint_file,
    lint_paths,
)
from repro.gaspi import GaspiContext
from repro.harness import JobSpec, MARENOSTRUM4, VariantError, build_job, run_variants
from repro.network import Cluster, INFINIBAND
from repro.sim import Engine, SimulationError
from repro.trace import NULL_TRACER
from repro.trace.tracer import FanOut

MACH4 = MARENOSTRUM4.with_cores(4)
N = 32


def checked_pair(n_ranks=2, **kwargs):
    """A cluster + GASPI context with every dynamic checker attached."""
    eng = Engine()
    cl = Cluster(eng, n_ranks, INFINIBAND)
    cl.place_ranks_block(n_ranks, 1)
    gaspi = GaspiContext(cl, n_queues=2)
    for r in range(n_ranks):
        gaspi.rank(r).segment_register(0, np.zeros(N))
    an = AnalysisPipeline(**kwargs).install(eng)
    an.attach_cluster(cl)
    an.attach_gaspi(gaspi)
    return eng, gaspi, an


class TestRaceDetector:
    def test_premature_read_is_a_wr_race(self):
        eng, gaspi, an = checked_pair()
        gaspi.rank(0).write_notify(0, 0, 1, 0, 0, N,
                                   notif_id=3, notif_val=1, queue=0)
        gaspi.rank(1).segment_access(0, 0, N, mode="read")
        eng.run()
        kinds = [f.kind for f in an.findings]
        assert "wr-race" in kinds
        (f,) = [f for f in an.findings if f.kind == "wr-race"]
        assert f.severity == SEV_ERROR and f.rank == "rank1"

    def test_consumed_notification_orders_the_read(self):
        eng, gaspi, an = checked_pair()
        gaspi.rank(0).write_notify(0, 0, 1, 0, 0, N,
                                   notif_id=3, notif_val=1, queue=0)

        def consumer():
            yield from gaspi.rank(1).notify_waitsome(0, 3, 1)
            gaspi.rank(1).segment_access(0, 0, N, mode="read")

        eng.run_until_complete(eng.process(consumer()))
        assert an.findings == []

    def test_disjoint_ranges_do_not_race(self):
        eng, gaspi, an = checked_pair()
        gaspi.rank(0).write_notify(0, 0, 1, 0, 0, N // 2,
                                   notif_id=3, notif_val=1, queue=0)
        gaspi.rank(1).segment_access(0, N // 2, N // 2, mode="read")
        eng.run()
        assert an.findings == []

    def test_same_channel_overwrite_is_a_lost_update(self):
        eng, gaspi, an = checked_pair()
        r0 = gaspi.rank(0)
        r0.write_notify(0, 0, 1, 0, 0, N, notif_id=3, notif_val=1, queue=0)
        r0.write_notify(0, 0, 1, 0, 0, N, notif_id=4, notif_val=2, queue=0)
        eng.run()
        assert [f.kind for f in an.findings] == ["lost-update"]

    def test_cross_queue_overlapping_puts_are_a_ww_race(self):
        eng, gaspi, an = checked_pair()
        gaspi.rank(0).write(0, 0, 1, 0, 0, N, queue=0)
        gaspi.rank(0).write(0, 0, 1, 0, 0, N, queue=1)
        eng.run()
        assert [f.kind for f in an.findings] == ["ww-race"]

    def test_notification_overwrite_is_lost(self):
        eng, gaspi, an = checked_pair()
        gaspi.rank(0).notify(1, 0, notif_id=7, notif_val=1, queue=0)
        gaspi.rank(0).notify(1, 0, notif_id=7,  # analysis-ok: seeded overwrite
                             notif_val=2, queue=0)
        eng.run()
        assert "lost-notification" in [f.kind for f in an.findings]

    def test_findings_are_deterministic(self):
        def run():
            eng, gaspi, an = checked_pair()
            r0 = gaspi.rank(0)
            r0.write_notify(0, 0, 1, 0, 0, N, notif_id=3, notif_val=1, queue=0)
            gaspi.rank(1).segment_access(0, 0, N, mode="read")
            r0.write_notify(0, 0, 1, 0, 0, N,  # analysis-ok: seeded overwrite
                            notif_id=3, notif_val=2, queue=0)
            eng.run()
            return an.findings

        a, b = run(), run()
        assert a == b and len(a) >= 3  # frozen dataclasses: field equality

    def test_checkers_individually_switchable(self):
        eng, gaspi, an = checked_pair(races=False)
        gaspi.rank(0).write(0, 0, 1, 0, 0, N, queue=0)
        gaspi.rank(0).write(0, 0, 1, 0, 0, N, queue=1)
        eng.run()
        assert an.findings == []
        assert an.race_detector is None


class TestDeadlockDiagnoser:
    def test_circular_notify_wait_names_the_cycle(self):
        eng, gaspi, an = checked_pair()

        def rank_main(r):
            yield from gaspi.rank(r).notify_waitsome(0, r, 1)

        eng.process(rank_main(0))
        eng.process(rank_main(1))
        with pytest.raises(SimulationError) as exc:
            eng.run(max_events=2000)
        msg = str(exc.value)
        assert "deadlock cycle: rank0 -> rank1 -> rank0" in msg
        assert "blocked in notify_waitsome" in msg
        assert [f.kind for f in an.findings] == ["deadlock-cycle"]

    def test_cycle_finding_reported_once(self):
        eng, gaspi, an = checked_pair()

        def rank_main(r):
            yield from gaspi.rank(r).notify_waitsome(0, r, 1)

        eng.process(rank_main(0))
        eng.process(rank_main(1))
        eng.run(until=1e-6)  # let both generators reach their wait
        assert "deadlock cycle" in an.deadlock_report()
        assert "deadlock cycle" in an.deadlock_report()
        assert len(an.findings) == 1

    def test_mpi_deadlock_diagnosed_through_the_harness(self):
        job = build_job(JobSpec(machine=MACH4, n_nodes=1, variant="mpi",
                                check="report"))

        def stuck(drv):
            buf = np.zeros(4)
            req = yield from drv.irecv(buf, 1, tag=9)  # nobody sends
            yield from drv.wait(req)

        proc = job.drivers[0].spawn(stuck)
        with pytest.raises(SimulationError) as exc:
            job.run([proc])
        msg = str(exc.value)
        assert "wait-for diagnosis" in msg
        assert "blocked in mpi_wait" in msg and "peer=1" in msg

    def test_no_blockers_reports_cleanly(self):
        _eng, _gaspi, an = checked_pair()
        assert "no blocked primitives" in an.deadlock_report()


class TestResourceLint:
    def test_unconsumed_notification_is_a_warning(self):
        eng, gaspi, an = checked_pair()
        gaspi.rank(0).notify(1, 0, notif_id=9, notif_val=5, queue=0)
        eng.run()
        an.finalize()
        assert an.findings == []
        kinds = [w.kind for w in an.warnings]
        assert "unconsumed-notification" in kinds
        assert all(w.severity == SEV_WARNING for w in an.warnings)

    def test_unfreed_mpi_request_is_a_warning(self):
        job = build_job(JobSpec(machine=MACH4, n_nodes=1, variant="mpi",
                                check="report"))

        def leaky(drv):
            buf = np.zeros(4)
            # posted, never matched (analysis-ok: seeded leak for the lint)
            yield from drv.irecv(buf, 1, tag=2)

        job.run([job.drivers[0].spawn(leaky)])
        assert "unfreed-mpi-request" in [w.kind for w in job.analysis.warnings]

    def test_strict_finalize_raises_with_findings_attached(self):
        eng, gaspi, an = checked_pair(strict=True)
        gaspi.rank(0).write(0, 0, 1, 0, 0, N, queue=0)
        gaspi.rank(0).write(0, 0, 1, 0, 0, N, queue=1)
        eng.run()
        with pytest.raises(AnalysisError, match="ww-race") as exc:
            an.finalize()
        assert [f.kind for f in exc.value.findings] == ["ww-race"]

    def test_report_mode_does_not_raise(self):
        eng, gaspi, an = checked_pair(strict=False)
        gaspi.rank(0).write(0, 0, 1, 0, 0, N, queue=0)
        gaspi.rank(0).write(0, 0, 1, 0, 0, N, queue=1)
        eng.run()
        assert [f.kind for f in an.finalize()] == ["ww-race"]


def _exchange(job, n, tail=None, leak_every=None):
    """Rank 0 sends ``n`` waited messages to rank 2 (a fresh buffer each),
    posting an unmatched irecv from rank 1 every ``leak_every`` sends; then
    runs ``tail``."""

    def src(drv):
        for i in range(n):
            if leak_every and i % leak_every == 0:
                # posted, never matched (analysis-ok: seeded leak for the lint)
                yield from drv.irecv(np.zeros(4), 1, tag=1000 + i)
            req = yield from drv.isend(np.zeros(4), 2, tag=i)
            yield from drv.wait(req)
        if tail is not None:
            yield from tail(drv)

    def sink(drv):
        buf = np.zeros(4)
        for i in range(n):
            req = yield from drv.irecv(buf, 0, tag=i)
            yield from drv.wait(req)

    return [job.drivers[0].spawn(src), job.drivers[2].spawn(sink)]


class TestRequestRegistry:
    """``AnalysisPipeline.mpi_requests`` holds unfinished requests only,
    and its readers report exactly what the unpruned registry gave."""

    def _job(self):
        return build_job(JobSpec(machine=MACH4, n_nodes=1, variant="mpi",
                                 check="report"))

    def test_waited_request_is_released_before_finalize(self, monkeypatch):
        """A request that completed and was waited on is garbage once
        later registrations prune the registry, long before finalize. Its
        send buffer stands in for it: nothing but the request holds it."""
        from repro.mpi.comm import MPIRank

        real = MPIRank.isend
        first = []

        def isend(self, buf, dest, tag):
            if not first:
                first.append(weakref.ref(buf))
            return real(self, buf, dest, tag)

        monkeypatch.setattr(MPIRank, "isend", isend)
        job = self._job()
        seen = {}

        def tail(drv):
            gc.collect()
            seen["released"] = first[0]() is None
            seen["registered"] = len(job.analysis.mpi_requests)
            yield from ()

        job.run(_exchange(job, 200, tail=tail))
        assert seen["released"]
        # 400 registrations, 1 unfinished at the end: the list stays small
        assert seen["registered"] < 64
        assert job.analysis.warnings == []

    def test_unfreed_requests_keep_their_text_and_order(self):
        job = self._job()
        job.run(_exchange(job, 200, leak_every=20))
        assert [str(w) for w in job.analysis.warnings] == [
            "[warning] resources/unfreed-mpi-request rank=rank0 "
            "t=0.000166537s: 10 MPI request(s) never completed/waited: "
            "recv tag=1000 peer=rank1 pending, recv tag=1020 peer=rank1 "
            "pending, recv tag=1040 peer=rank1 pending, recv tag=1060 "
            "peer=rank1 pending, ... (6 more)"]
        assert job.analysis.warnings[0].details == (("count", 10),)

    def test_deadlock_report_text_unchanged(self):
        job = self._job()

        def stuck(drv):
            req = yield from drv.irecv(np.zeros(4), 1, tag=9)  # nobody sends
            yield from drv.wait(req)

        with pytest.raises(SimulationError) as exc:
            job.run(_exchange(job, 200, tail=stuck))
        assert str(exc.value) == (
            "job deadlocked; still alive: ['mpi-only.rank0']\n"
            "wait-for diagnosis (1 blocked process(es)):\n"
            "  rank0: blocked in mpi_wait(kind=recv, peer=1, tag=9) "
            "since t=0.000161987s\n"
            "  rank0: recv tag=9 peer=rank1 pending\n"
            "  rank0 waits for: rank1")

    def test_unwaited_request_example_convicts_with_the_same_text(self):
        from repro.mpi.comm import MPIProcDriver

        ex = runpy.run_path(os.path.join(
            os.path.dirname(__file__), "..", "examples", "static",
            "unwaited_request.py"))
        eng, mpi, an = ex["build"]()
        MPIProcDriver(mpi.rank(1)).spawn(ex["leaky_consumer"])
        eng.run()
        an.finalize()
        assert [str(w) for w in an.warnings] == [
            "[warning] resources/unfreed-mpi-request rank=rank1 t=4e-07s: "
            "1 MPI request(s) never completed/waited: recv tag=3 "
            "peer=rank0 pending"]


class TestHarnessCheckAxis:
    def test_invalid_check_rejected(self):
        with pytest.raises(VariantError, match="check"):
            JobSpec(machine=MACH4, n_nodes=1, variant="mpi", check="audit")

    def test_null_analysis_is_the_default(self):
        """Checking is off unless asked for, and the checkers have no hook
        of their own: an unchecked job's one observer is the null tracer."""
        assert Engine().tracer is NULL_TRACER
        assert not hasattr(Engine(), "analysis")
        job = build_job(JobSpec(machine=MACH4, n_nodes=1, variant="mpi"))
        assert job.analysis is None
        assert job.engine.tracer is NULL_TRACER

    def test_checkers_observe_through_engine_tracer(self):
        """``check`` alone installs the pipeline as the tracer, off the
        engine's per-event hook; with another observer the two share one
        :class:`FanOut`, which calls a child directly for an emit only
        that child reads."""
        from repro.perf import PerfTracer

        job = build_job(JobSpec(machine=MACH4, n_nodes=1, variant="mpi",
                                check="report"))
        assert job.engine.tracer is job.analysis
        assert job.tracer is NULL_TRACER
        assert not job.engine._observing()
        job = build_job(JobSpec(machine=MACH4, n_nodes=1, variant="mpi",
                                check="report", perf=True))
        fan = job.engine.tracer
        assert isinstance(fan, FanOut)
        assert fan.children == (job.tracer, job.analysis)
        assert isinstance(job.tracer, PerfTracer)
        assert fan.mpi_request == job.analysis.mpi_request
        assert fan.task_on_core == job.tracer.task_on_core
        assert fan.span == job.tracer.span
        assert not job.engine._observing()

    def test_paper_variants_strict_clean(self):
        """Acceptance: the paper's communication patterns carry no error
        finding under every dynamic checker in strict mode."""
        from repro.apps.gauss_seidel import GSParams, run_gauss_seidel

        params = GSParams(rows=32, cols=32, timesteps=2, block_size=16,
                          compute_data=False)
        results = run_variants(run_gauss_seidel, MACH4, 2, params,
                               check="strict")
        for variant in ("mpi", "tampi", "tagaspi"):
            assert results[variant]["none"].sim_time > 0

    def test_strict_matches_unchecked_results(self):
        from repro.apps.streaming import StreamingParams, run_streaming

        params = StreamingParams(chunks=4, elements_per_chunk=512,
                                 block_size=128, compute_data=False)

        def run(check):
            spec = JobSpec(machine=MACH4, n_nodes=2, variant="tagaspi",
                           seed=5, check=check)
            return run_streaming(spec, params)

        plain, strict = run(None), run("strict")
        assert plain.sim_time == strict.sim_time
        assert plain.extra["messages"] == strict.extra["messages"]


#: synthetic violation -> the rule expected to fire on it
SNIPPETS = {
    ("time", "wallclock"):
        "import time\n\ndef f():\n    return time.time()\n",
    ("datetime", "wallclock"):
        "from datetime import datetime\n\ndef f():\n"
        "    return datetime.now()\n",
    ("random", "wallclock"):
        "import random\n\ndef f():\n    return random.random()\n",
    ("id", "id-key"): "def f(x, seen):\n    seen.add(id(x))\n",
    ("setcomp", "set-iteration"):
        "def f():\n    return [x for x in {3, 1, 2}]\n",
    ("setfor", "set-iteration"):
        "def f(a):\n    for x in set(a):\n        pass\n",
}


class TestStaticLint:
    @pytest.mark.parametrize("name,rule", sorted(SNIPPETS))
    def test_rule_fires(self, name, rule, tmp_path):
        p = tmp_path / f"{name}.py"
        p.write_text(SNIPPETS[(name, rule)])
        findings = lint_file(str(p))
        assert [f.rule for f in findings] == [rule]
        assert str(p) in str(findings[0])

    def test_pragma_exempts_a_line(self, tmp_path):
        p = tmp_path / "ok.py"
        p.write_text("import time\n\n"
                     "def f():\n"
                     "    return time.time()  # analysis-ok: benchmarking\n")
        assert lint_file(str(p)) == []

    def test_seeded_random_is_fine(self, tmp_path):
        p = tmp_path / "ok.py"
        p.write_text("import random\n\ndef f(seed):\n"
                     "    return random.Random(seed).random()\n")
        # only the module-level global-generator call would be flagged;
        # .random() on a seeded instance has root "random.Random(seed)"
        assert [f.rule for f in lint_file(str(p))] == []

    def test_bench_dirs_exempt_from_wallclock_only(self, tmp_path):
        d = tmp_path / "benchmarks"
        d.mkdir()
        p = d / "timer.py"
        p.write_text("import time\n\ndef f(x, seen):\n"
                     "    seen.add(id(x))\n    return time.perf_counter()\n")
        assert [f.rule for f in lint_file(str(p))] == ["id-key"]

    def test_syntax_error_reported_not_raised(self, tmp_path):
        p = tmp_path / "broken.py"
        p.write_text("def f(:\n")
        assert [f.rule for f in lint_file(str(p))] == ["syntax"]

    def test_lint_paths_walks_deterministically(self, tmp_path):
        for name in ("b.py", "a.py"):
            (tmp_path / name).write_text("import time\nt = time.time()\n")
        findings = lint_paths([str(tmp_path)])
        assert [os.path.basename(f.path) for f in findings] == ["a.py", "b.py"]

    def test_repo_source_tree_is_clean(self):
        """The CI gate: the simulator's own source must pass its lint."""
        assert lint_paths(["src"]) == []


class TestAnalysisCLI:
    def test_lint_subcommand_clean_exit(self, capsys):
        from repro.analysis.cli import main

        assert main(["lint", "src"]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_lint_subcommand_failing_exit(self, tmp_path, capsys):
        from repro.analysis.cli import main

        p = tmp_path / "bad.py"
        p.write_text(textwrap.dedent("""\
            import time
            def f():
                return time.time()
        """))
        assert main(["lint", str(p)]) == 1
        out = capsys.readouterr().out
        assert "[wallclock]" in out and "1 finding(s)" in out


def test_harness_import_leaves_the_static_checkers_unloaded():
    """The lint and the protocol verifier load on first use of their
    names, not with the pipeline every job imports; the sweep's process
    pool loads on the first parallel map."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    code = ("import sys, repro.harness; "
            "print(sorted(m for m in sys.modules if m in "
            "('repro.analysis.lint', 'repro.analysis.static', "
            "'multiprocessing', 'concurrent.futures')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "[]"
    # and the lazy names still resolve, also through ``import *``
    from repro.analysis import LintFinding, verify_file, verify_paths

    from repro.analysis.lint import LintFinding as direct
    assert LintFinding is direct and callable(verify_file)
    assert callable(verify_paths)
    namespace: dict = {}
    exec("from repro.analysis import *", namespace)
    assert namespace["lint_paths"] is lint_paths
