"""Experiment harness: machine presets, job construction, metrics, reports.

This package turns the substrates into runnable "jobs" matching the paper's
three variants:

* ``mpi``      — pure MPI, one single-threaded rank per core;
* ``tampi``    — hybrid MPI + tasking via the TAMPI library;
* ``tagaspi``  — hybrid GASPI + tasking via the TAGASPI library
  (optionally with TAMPI alongside, as miniAMR's load balancing does).

Machines are downscaled versions of Marenostrum4 and CTE-AMD (DESIGN.md §1
documents the scaling); every figure's bench builds jobs through
:func:`repro.harness.runner.build_job` so experiments stay uniform.
"""

from repro.harness.machines import Machine, MARENOSTRUM4, CTE_AMD
from repro.harness.runner import JobSpec, Job, build_job, VariantError, VARIANTS
from repro.harness.metrics import VariantResult, speedup, parallel_efficiency
from repro.harness.parallel import SweepExecutor, SweepPoint
from repro.harness.report import format_table, format_series
from repro.harness.sweep import fault_sweep_table, run_variants

__all__ = [
    "Machine",
    "MARENOSTRUM4",
    "CTE_AMD",
    "JobSpec",
    "Job",
    "build_job",
    "VariantError",
    "VARIANTS",
    "VariantResult",
    "speedup",
    "parallel_efficiency",
    "SweepExecutor",
    "SweepPoint",
    "format_table",
    "format_series",
    "run_variants",
    "fault_sweep_table",
]
