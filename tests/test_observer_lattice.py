"""Every observer configuration sees the same run, and observes it the same.

Per application shape, one job runs under each observer configuration of
:data:`CONFIGS`: nothing, the checkers (``check="report"``/``"strict"``),
the ``perf`` fold, a recording :class:`~repro.trace.Tracer`, and their
pairings. Observing is passive, so every configuration must give the same
:class:`~repro.harness.VariantResult` (``perf_*`` keys aside, which only
``perf`` runs carry) and the same fired-event count. What each observer
sees is pinned in ``tests/observer_lattice_pins.json``: the checker report,
a sha256 of the recorded trace, every ``perf_*`` value, and the output of
the two checker examples (the deadlock diagnosis and the race findings),
alone and under a recording tracer.

Regenerate the pins only for a change meant to move them::

    PYTHONPATH=src python tests/test_observer_lattice.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib.util
import io
import json
import pathlib

import pytest

from repro.apps.cg import CGParams, run_cg
from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.apps.miniamr import AMRParams, run_miniamr
from repro.apps.streaming import StreamingParams, run_streaming
from repro.harness import CTE_AMD, MARENOSTRUM4, Job, JobSpec
from repro.sim import Engine
from repro.trace import Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "observer_lattice_pins.json"

_MN4 = MARENOSTRUM4.with_cores(4)
_GS = GSParams(rows=64, cols=128, timesteps=2, block_size=32,
               compute_data=False)
SHAPES = {
    "gs-mpi": (run_gauss_seidel, dict(machine=_MN4, variant="mpi"), _GS),
    "gs-tampi": (run_gauss_seidel,
                 dict(machine=_MN4, variant="tampi", poll_period_us=50), _GS),
    "gs-tagaspi": (run_gauss_seidel,
                   dict(machine=_MN4, variant="tagaspi", poll_period_us=50),
                   _GS),
    "miniamr-tagaspi": (run_miniamr, dict(machine=_MN4, variant="tagaspi"),
                        AMRParams(nx=2, ny=2, nz=2, max_level=1, timesteps=2,
                                  refine_every=2, compute_data=False)),
    "streaming-tampi": (run_streaming,
                        dict(machine=CTE_AMD.with_cores(4), variant="tampi",
                             poll_period_us=15),
                        StreamingParams(chunks=2, elements_per_chunk=4096,
                                        block_size=512, compute_data=False)),
    "cg-gaspi": (run_cg, dict(machine=_MN4, variant="mpi", backend="gaspi"),
                 CGParams(n=128, iterations=2, compute_data=False)),
    "cg-rma": (run_cg, dict(machine=_MN4, variant="mpi", backend="rma"),
               CGParams(n=128, iterations=2, compute_data=False)),
}

#: observer configuration -> (JobSpec keywords, records a timeline)
CONFIGS = {
    "none": ({}, False),
    "report": ({"check": "report"}, False),
    "strict": ({"check": "strict"}, False),
    "perf": ({"perf": True}, False),
    "record": ({}, True),
    "record+report": ({"check": "report"}, True),
    "perf+report": ({"perf": True, "check": "report"}, False),
    "record+perf": ({"perf": True}, True),
}


def _observe(shape: str, config: str) -> dict:
    """Run ``shape`` under ``config``; what it computed and what its
    observers saw."""
    runner, spec_kw, params = SHAPES[shape]
    spec_extra, record = CONFIGS[config]
    tracer = Tracer(progress_every=None) if record else None
    jobs = []
    real_run = Job.run

    def run(self, *args, **kwargs):
        jobs.append(self)
        return real_run(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Job, "run", run)
        result = dataclasses.asdict(runner(
            JobSpec(n_nodes=2, seed=1, **spec_kw, **spec_extra), params,
            tracer=tracer))
    (job,) = jobs
    extra = result.pop("extra")
    result["extra"] = {k: v for k, v in extra.items()
                       if not k.startswith("perf_")}
    seen = {"result": result, "events": job.engine.event_count}
    if job.analysis is not None:
        seen["report"] = job.analysis.report()
    if record:
        seen["trace"] = hashlib.sha256(
            repr(tracer.records).encode()).hexdigest()
    if job.spec.perf:
        seen["perf"] = {k: v for k, v in extra.items()
                        if k.startswith("perf_")}
    return seen


def _example_output(name: str, record: bool) -> str:
    """stdout of ``examples/<name>.py``'s ``main()``, optionally with a
    recording tracer on every engine it builds."""
    spec = importlib.util.spec_from_file_location(
        f"lattice_{name}", ROOT / "examples" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    if record:
        mod.Engine = functools.partial(
            Engine, tracer=Tracer(progress_every=None))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        mod.main()
    return out.getvalue()


def _shape_pins(shape: str) -> dict:
    runs = {c: _observe(shape, c) for c in CONFIGS}
    pins = {"sim_time": runs["none"]["result"]["sim_time"],
            "events": runs["none"]["events"]}
    for key in ("report", "trace", "perf"):
        pins[key] = next(r[key] for r in runs.values() if key in r)
    return pins


def _pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("shape", SHAPES)
def test_every_observer_sees_the_same_run(shape):
    pins = _pins()["shapes"][shape]
    runs = {c: _observe(shape, c) for c in CONFIGS}
    base = runs["none"]
    assert (base["result"]["sim_time"], base["events"]) == (
        pins["sim_time"], pins["events"])
    for config, seen in runs.items():
        for key in ("result", "events"):
            assert seen[key] == base[key], (
                f"{shape}: {key} differs between 'none' and {config!r}")
        for key in ("report", "trace", "perf"):
            if key in seen:
                assert seen[key] == pins[key], (
                    f"{shape}: {config!r} moved the pinned {key}")


@pytest.mark.parametrize("name", ["deadlock_cycle", "racy_put"])
@pytest.mark.parametrize("record", [False, True], ids=["check", "record+check"])
def test_checker_examples_report_the_same(name, record):
    assert _example_output(name, record) == _pins()["examples"][name]


if __name__ == "__main__":
    PINS.write_text(json.dumps({
        "shapes": {s: _shape_pins(s) for s in SHAPES},
        "examples": {n: _example_output(n, False)
                     for n in ("deadlock_cycle", "racy_put")},
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
