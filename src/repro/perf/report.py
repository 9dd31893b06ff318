"""The assembled performance-diagnosis report.

:func:`analyze_tracer` / :func:`analyze_doc` are the two entry points; the
resulting :class:`PerfReport` renders text tables (:meth:`summary`) and
flattens into ``perf_*`` keys (:meth:`extra_metrics`) that the harness
merges into :class:`~repro.harness.metrics.VariantResult.extra` when a job
runs with ``perf=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.perf.critical_path import (CATEGORIES, CriticalPath,
                                      critical_path)
from repro.perf.efficiency import Efficiency, compute_efficiency
from repro.perf.model import PerfModel, model_from_chrome, model_from_tracer
from repro.perf.waitstates import RankWaits, classify_waits, dominant_wait


@dataclass
class PerfReport:
    model: PerfModel
    path: CriticalPath
    waits: List[RankWaits]
    efficiency: Efficiency
    variant: Optional[str] = None

    # ------------------------------------------------------------------
    def extra_metrics(self) -> Dict[str, object]:
        """Flatten into ``perf_*`` keys for ``VariantResult.extra``."""
        sh = self.path.shares()
        eff = self.efficiency
        totals = {w: 0.0 for w in
                  ("late_sender", "late_notification", "lock_wait",
                   "poll_detection")}
        for w in self.waits:
            for k in totals:
                totals[k] += getattr(w, k)
        return {
            "perf_parallel_efficiency": eff.parallel_efficiency,
            "perf_load_balance": eff.load_balance,
            "perf_comm_efficiency": eff.comm_efficiency,
            "perf_serialization_efficiency": eff.serialization_efficiency,
            "perf_cp_length_s": self.path.length(),
            "perf_cp_compute_share": sh["compute"],
            "perf_cp_comm_share": self.path.comm_share(),
            "perf_cp_lock_share": sh["lock_wait"],
            "perf_cp_notify_share": sh["notify_wait"],
            "perf_cp_sched_share": sh["sched"],
            "perf_late_sender_s": totals["late_sender"],
            "perf_late_notification_s": totals["late_notification"],
            "perf_lock_wait_s": totals["lock_wait"],
            "perf_poll_detection_s": totals["poll_detection"],
            "perf_dominant_wait": dominant_wait(self.waits),
        }

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Render the full diagnosis as text tables."""
        from repro.harness.report import format_table  # avoid import cycle

        us = 1e6
        sh = self.path.shares()
        head = "performance diagnosis"
        if self.variant:
            head += f" ({self.variant})"
        parts = [
            head,
            f"makespan: {self.model.makespan * us:.1f} us, critical path: "
            f"{self.path.length() * us:.1f} us "
            f"({len(self.path.segments)} segments)",
            "",
            format_table(
                "critical-path attribution",
                ["category", "seconds", "share"],
                [[c, f"{sh[c] * self.path.length():.3e}", f"{sh[c]:6.1%}"]
                 for c in CATEGORIES],
            ),
            "",
            format_table(
                "wait states per rank (seconds)",
                ["rank", "late sender", "late notif", "lock wait",
                 "poll detect", "dominant"],
                [[str(w.rank), f"{w.late_sender:.3e}",
                  f"{w.late_notification:.3e}", f"{w.lock_wait:.3e}",
                  f"{w.poll_detection:.3e}", w.dominant()]
                 for w in self.waits],
            ),
            "",
            format_table(
                "POP efficiency",
                ["metric", "value"],
                [["parallel efficiency",
                  f"{self.efficiency.parallel_efficiency:.3f}"],
                 ["  load balance", f"{self.efficiency.load_balance:.3f}"],
                 ["  communication efficiency",
                  f"{self.efficiency.comm_efficiency:.3f}"],
                 ["serialization efficiency (cp compute share)",
                  f"{self.efficiency.serialization_efficiency:.3f}"],
                 ["dominant wait state", dominant_wait(self.waits)]],
            ),
        ]
        return "\n".join(parts)


def analyze_model(model: PerfModel, variant: Optional[str] = None,
                  cores_per_rank: Optional[int] = None) -> PerfReport:
    path = critical_path(model)
    waits = classify_waits(model)
    eff = compute_efficiency(model, path, cores_per_rank=cores_per_rank)
    return PerfReport(model, path, waits, eff, variant=variant)


def analyze_tracer(tracer, variant: Optional[str] = None,
                   cores_per_rank: Optional[int] = None) -> PerfReport:
    """Diagnose a finished run from its tracer (online or recording)."""
    return analyze_model(model_from_tracer(tracer), variant=variant,
                         cores_per_rank=cores_per_rank)


def analyze_doc(doc: dict, variant: Optional[str] = None,
                cores_per_rank: Optional[int] = None) -> PerfReport:
    """Diagnose an exported Chrome-trace document."""
    return analyze_model(model_from_chrome(doc), variant=variant,
                         cores_per_rank=cores_per_rank)
