"""Performance diagnosis (critical path, wait states, POP efficiency
metrics) from trace emits: folded online (:class:`PerfTracer`) or replayed.

Entry points:

* :func:`analyze_tracer` — diagnose a finished run from its tracer,
* :func:`analyze_doc` — diagnose an exported Chrome-trace document,
* ``python -m repro.perf trace.json`` — the CLI.

See docs/perf.md for the methodology.
"""

from repro.perf.critical_path import (CATEGORIES, CriticalPath, PathSegment,
                                      critical_path)
from repro.perf.efficiency import Efficiency, compute_efficiency
from repro.perf.model import (NotifyWait, PerfModel, PerfTracer, TaskInfo,
                              model_from_chrome, model_from_tracer,
                              records_from_chrome)
from repro.perf.report import PerfReport, analyze_doc, analyze_model, analyze_tracer
from repro.perf.waitstates import (WAIT_STATES, RankWaits, classify_waits,
                                   dominant_wait)

__all__ = [
    "CATEGORIES",
    "CriticalPath",
    "Efficiency",
    "NotifyWait",
    "PathSegment",
    "PerfModel",
    "PerfReport",
    "PerfTracer",
    "RankWaits",
    "TaskInfo",
    "WAIT_STATES",
    "analyze_doc",
    "analyze_model",
    "analyze_tracer",
    "classify_waits",
    "compute_efficiency",
    "critical_path",
    "dominant_wait",
    "model_from_chrome",
    "model_from_tracer",
    "records_from_chrome",
]
