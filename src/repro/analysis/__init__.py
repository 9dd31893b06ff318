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

The simulation-aware checkers load lazily when a pipeline is constructed,
and the static ones on first access to their names: a job that imports
the pipeline does not pay for the lint or the verifier.
"""

import importlib

from repro.analysis.pipeline import (
    SEV_ERROR,
    SEV_WARNING,
    AnalysisError,
    AnalysisPipeline,
    Finding,
)

#: public names of the static checkers -> the module that defines them
_STATIC = {
    "LintFinding": "repro.analysis.lint",
    "lint_file": "repro.analysis.lint",
    "lint_paths": "repro.analysis.lint",
    "verify_file": "repro.analysis.static",
    "verify_paths": "repro.analysis.static",
}


def __getattr__(name: str):
    if name not in _STATIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_STATIC[name]), name)


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
