"""Correctness analysis for the simulated stack (docs/analysis.md).

Dynamic checkers (bit-identical when enabled):

* :class:`AnalysisPipeline` — a :class:`~repro.trace.Tracer` installed as
  (or fanned out beside) ``engine.tracer`` that reads the typed emits the
  checkers need; hosts the vector-clock RMA race detector
  (:mod:`repro.analysis.races`), the wait-for deadlock diagnoser
  (:mod:`repro.analysis.deadlock`), and the finalize-time resource lint
  (:mod:`repro.analysis.resources`). Enabled per job via
  ``JobSpec(check="report"|"strict")`` or the ``check=`` axis of
  :func:`repro.harness.run_variants`.

Static checkers:

* :func:`lint_paths` — the determinism lint behind
  ``python -m repro.analysis lint src/`` (:mod:`repro.analysis.lint`).
* :func:`verify_paths` — the CFG/dataflow communication-protocol
  verifier behind ``python -m repro.analysis verify`` / ``repro-verify``
  (:mod:`repro.analysis.static`). Each of its rules is the static twin
  of a dynamic checker; ``examples/static/`` validates them
  differentially.

The simulation-aware checkers load lazily when a pipeline is constructed.
"""

from repro.analysis.lint import LintFinding, lint_file, lint_paths
from repro.analysis.static import verify_file, verify_paths
from repro.analysis.pipeline import (
    SEV_ERROR,
    SEV_WARNING,
    AnalysisError,
    AnalysisPipeline,
    Finding,
)

__all__ = [
    "AnalysisError",
    "AnalysisPipeline",
    "Finding",
    "LintFinding",
    "SEV_ERROR",
    "SEV_WARNING",
    "lint_file",
    "lint_paths",
    "verify_file",
    "verify_paths",
]
