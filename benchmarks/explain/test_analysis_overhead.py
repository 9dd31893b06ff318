"""What the correctness checkers cost, and that they perturb nothing
(docs/analysis.md, "Cost").

One tagaspi Gauss–Seidel point (the variant that drives every hook
family: GASPI submissions, notifications, tasks, messages) runs with
checking off, ``check="report"``, ``check="strict"`` and each checker
alone. Every mode must give the same, pinned, simulated time and event
count, and no checked run may carry a finding. Each overhead printed is the median
of rep-interleaved checked/unchecked pairs: the job lasts tens of
milliseconds, and one side timed after the other reads warm-up as a
checker speedup.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import emit
from benchmarks.explain.conftest import pairs
from repro.analysis import AnalysisPipeline
from repro.apps.gauss_seidel.common import GSParams
from repro.apps.gauss_seidel.variants import make_storages, tagaspi_main
from repro.harness import JobSpec, MARENOSTRUM4, build_job

CHECKERS = ("races", "deadlock", "resources")
MACHINE = MARENOSTRUM4.with_cores(4)
PARAMS = GSParams(rows=128, cols=1024, timesteps=6, block_size=64,
                  compute_data=False)
REPS = 5
#: ``(sim_time, event_count)`` of every mode
SIM_TIME_AND_EVENTS = (0.0022963099999999993, 1722)


def _attach(job, **checkers):
    """Attach a pipeline the way ``Job.__init__`` does for ``check=``, so
    one checker can be costed alone."""
    pl = AnalysisPipeline(**checkers)
    pl.install(job.engine)
    pl.attach_cluster(job.cluster)
    if job.gaspi is not None:
        pl.attach_gaspi(job.gaspi)
    for t in job.tagaspi:
        pl.attach_tagaspi(t)
    for rt in job.runtimes:
        pl.attach_runtime(rt)
    return pl


def _point(outcomes, label, check=None, checkers=None):
    """``(build, run)`` for one mode; ``run`` records
    ``(sim_time, event_count)`` under ``label``."""
    def build():
        job = build_job(JobSpec(machine=MACHINE, n_nodes=2,
                                variant="tagaspi", check=check))
        if checkers is not None:
            job.analysis = _attach(job, **checkers)
        return job, [tagaspi_main(job, PARAMS, st)
                     for st in make_storages(job, PARAMS)]

    def run(subject):
        job, procs = subject
        sim_time = job.run(procs)
        outcomes.setdefault(label, set()).add(
            (sim_time, job.engine.event_count))
        if job.analysis is not None:
            assert not job.analysis.findings, job.analysis.report()

    return build, run


def test_checkers_cost_wall_time_only():
    outcomes = {}
    off = _point(outcomes, "off")
    modes = [("report", {"check": "report"}), ("strict", {"check": "strict"})]
    modes += [(name, {"checkers": {c: c == name for c in CHECKERS}})
              for name in CHECKERS]
    lines = []
    for label, kwargs in modes:
        off_s, on_s = pairs(REPS, *off, *_point(outcomes, label, **kwargs))
        overhead = statistics.median(on / base
                                     for base, on in zip(off_s, on_s))
        lines.append(f"{label:>9s}: {min(on_s) * 1e3:7.2f} ms "
                     f"(off {min(off_s) * 1e3:.2f} ms), "
                     f"overhead x{overhead:.3f}")
    emit("\n".join(lines))
    assert set.union(*outcomes.values()) == {SIM_TIME_AND_EVENTS}, outcomes
