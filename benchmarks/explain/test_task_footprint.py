"""What a pending task keeps alive (docs/performance.md, "What a pending
task costs").

One tagaspi Gauss–Seidel point (the shape the other explanation files
use) runs twice with the cyclic GC on, as users have it. The first run
counts the gen-0/1/2 collections of the job and finds the submission
high-water mark: the most tasks outstanding at once, summed over ranks.
The second, identical run stops at that mark, collects, and counts the
GC-tracked objects of the whole process and of each pending task.

The structural bound is the one ``tests/test_tasking.py`` pins on a bare
runtime: the runtime keeps at most two tracked objects per pending task,
the ``Task`` and, from its first out-edge, one successor list. Dependency
tuples are read at submit and not kept; bodies are shared per kind or
bound per task with ``functools.partial`` and are the app's, not counted
here, nor is a running body's generator. Nothing is timed.
"""

from __future__ import annotations

import gc
from collections import Counter

from benchmarks.conftest import emit
from repro.apps.gauss_seidel.common import GSParams
from repro.apps.gauss_seidel.variants import make_storages, tagaspi_main
from repro.harness import JobSpec, MARENOSTRUM4, build_job
from repro.tasking import Task, TaskState

MACHINE = MARENOSTRUM4.with_cores(4)
PARAMS = GSParams(rows=128, cols=1024, timesteps=6, block_size=64,
                  compute_data=False)
#: ``(sim_time, event_count)`` of the job (as in test_analysis_overhead.py)
SIM_TIME_AND_EVENTS = (0.0022963099999999993, 1722)
#: tracked objects the runtime keeps per pending task, at most
RUNTIME_OBJECTS_PER_TASK = 2


def _job(on_submit):
    """The job and its rank mains; ``on_submit(total_outstanding)`` runs
    after every task submission."""
    job = build_job(JobSpec(machine=MACHINE, n_nodes=2, variant="tagaspi"))
    for rt in job.runtimes:
        def submit(*args, _submit=rt.submit, **kwargs):
            task = _submit(*args, **kwargs)
            on_submit(sum(r.outstanding for r in job.runtimes))
            return task
        rt.submit = submit
    return job, [tagaspi_main(job, PARAMS, st)
                 for st in make_storages(job, PARAMS)]


def _run(job, procs):
    sim_time = job.run(procs)
    assert (sim_time, job.engine.event_count) == SIM_TIME_AND_EVENTS
    return sim_time


def _runtime_footprint(task):
    """``task`` plus the tracked objects it references other than what it
    shares (its class, its runtime, its state) or what the app owns (its
    body, onready callback and running body's generator)."""
    shared = (Task, task.runtime, task.state, task.body, task.onready,
              task.generator)
    kept = [r for r in gc.get_referents(task)
            if gc.is_tracked(r) and not any(r is a for a in shared)]
    return 1 + len(kept)


def test_pending_task_footprint():
    # run 1: collections and the submission high-water mark
    hwm = [0]
    job, procs = _job(lambda n: hwm.__setitem__(0, max(hwm[0], n)))
    collections = Counter()

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        _run(job, procs)
    finally:
        gc.callbacks.remove(count)

    # run 2: stop at the mark and look at what is alive
    snap = {}

    def at_mark(n):
        if n == hwm[0] and not snap:
            gc.collect()
            objects = gc.get_objects()
            tasks = [o for o in objects if isinstance(o, Task)
                     and o.state is not TaskState.COMPLETED]
            snap.update(tracked=len(objects), tasks=len(tasks),
                        bodies=len({t.body for t in tasks}),
                        footprint=Counter(_runtime_footprint(t)
                                          for t in tasks))

    job, procs = _job(at_mark)
    gc.collect()
    base = len(gc.get_objects())
    _run(job, procs)

    per_task = (snap["tracked"] - base) / snap["tasks"]
    emit(f"pending tasks at the high-water mark: {snap['tasks']} "
         f"({hwm[0]} outstanding), {snap['bodies']} distinct bodies\n"
         f"tracked objects per pending task (whole process): {per_task:.2f}\n"
         f"runtime-kept objects per task -> tasks: "
         f"{dict(sorted(snap['footprint'].items()))}\n"
         f"collections gen0/gen1/gen2: {collections[0]}/{collections[1]}/"
         f"{collections[2]}")
    assert snap["tasks"] >= hwm[0]
    assert max(snap["footprint"]) <= RUNTIME_OBJECTS_PER_TASK
