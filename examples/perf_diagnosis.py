#!/usr/bin/env python
"""Performance diagnosis: *why* each variant scales the way it does.

Runs a fig09-style Gauss–Seidel problem through the MPI-only, TAMPI, and
TAGASPI variants with ``JobSpec(perf=True)``, prints the POP efficiency
metrics and the dominant wait state per variant, and checks the paper's
core claim in causal terms: taskifying communication (TAMPI/TAGASPI)
takes it off the critical path, so the critical-path communication share
drops versus the blocking MPI baseline.

``perf=True`` folds the model while the job runs and keeps no trace. The
example then *records* the TAGASPI run, checks that replaying the recording
gives the very same ``perf_*`` values (one builder, two feeds — the CI perf
job runs :func:`two_feeds` on its own), exports the trace and re-diagnoses
it through the ``python -m repro.perf`` entry point: the same analysis,
post-mortem, from a trace file on disk (docs/perf.md).

    python examples/perf_diagnosis.py
"""

import os
import tempfile

from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.harness import JobSpec, MARENOSTRUM4
from repro.perf import analyze_tracer
from repro.perf.cli import main as perf_cli
from repro.trace import Tracer, write_chrome_trace

BLOCKS = {"mpi": 512, "tampi": 128, "tagaspi": 128}


def _params(variant):
    # optimal-ish block sizes at this scale (paper: 1024 cols for
    # MPI-only, 512^2 for the hybrids)
    return GSParams(rows=512, cols=4096, timesteps=3,
                    block_size=BLOCKS[variant], compute_data=False)


def _spec(variant, perf=True):
    return JobSpec(machine=MARENOSTRUM4, n_nodes=8, variant=variant,
                   poll_period_us=50, seed=1, perf=perf)


def two_feeds(variant="tagaspi"):
    """Diagnose ``variant`` online (``perf=True``) and by replaying a
    recording of the same spec; any ``perf_*`` difference is an error.
    Returns the recording tracer."""
    online = run_gauss_seidel(_spec(variant), _params(variant)).extra
    tracer = Tracer(progress_every=None)
    spec = _spec(variant, perf=False)
    run_gauss_seidel(spec, _params(variant), tracer=tracer)
    replayed = analyze_tracer(tracer, variant=variant,
                              cores_per_rank=spec.cores_per_rank
                              ).extra_metrics()
    diff = {k: (online.get(k), v) for k, v in replayed.items()
            if repr(online.get(k)) != repr(v)}
    assert not diff and replayed, f"online vs replay differ: {diff}"
    print(f"online fold == recording + replay on all {len(replayed)} "
          f"perf_* keys ({len(tracer.records)} records replayed)\n")
    return tracer


def main():
    print("Gauss-Seidel 512x4096, 3 timesteps, 8 nodes — perf diagnosis\n")
    print(f"{'variant':>8s} {'PE':>6s} {'LB':>6s} {'CommE':>6s} {'SerE':>6s} "
          f"{'cp comm':>8s}  dominant wait")
    cp_comm = {}
    for variant in ("mpi", "tampi", "tagaspi"):
        res = run_gauss_seidel(_spec(variant), _params(variant))
        e = res.extra
        cp_comm[variant] = e["perf_cp_comm_share"]
        print(f"{variant:>8s} {e['perf_parallel_efficiency']:6.3f} "
              f"{e['perf_load_balance']:6.3f} "
              f"{e['perf_comm_efficiency']:6.3f} "
              f"{e['perf_serialization_efficiency']:6.3f} "
              f"{e['perf_cp_comm_share']:8.3f}  {e['perf_dominant_wait']}")

    # the paper's claim, causally: task-aware communication leaves the
    # critical path
    assert cp_comm["tampi"] < cp_comm["mpi"], cp_comm
    assert cp_comm["tagaspi"] < cp_comm["mpi"], cp_comm
    print("\ntaskified comm leaves the critical path: "
          f"mpi {cp_comm['mpi']:.3f} -> tampi {cp_comm['tampi']:.3f}, "
          f"tagaspi {cp_comm['tagaspi']:.3f}\n")

    # same diagnosis, post-mortem, from an exported trace file; set
    # REPRO_PERF_TRACE=<path> to keep the trace for `python -m repro.perf`
    # (the CI perf job does)
    tracer = two_feeds("tagaspi")
    keep = os.environ.get("REPRO_PERF_TRACE")
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = keep or os.path.join(tmp, "gs_tagaspi.trace.json")
        write_chrome_trace(tracer, trace_path)
        print(f"=== python -m repro.perf {os.path.basename(trace_path)} ===")
        rc = perf_cli([trace_path, "--variant", "tagaspi"])
        assert rc == 0


if __name__ == "__main__":
    main()
