"""From pass results to the metric names ``BENCHMARK.json`` declares.

``BENCHMARK.json`` is the one place a metric's unit, direction and bound
live; this module only computes values. :func:`check_schema` holds the two
in step: every computed name is declared, and every declared name is
reported (a value, or ``None`` with a note).
"""

from __future__ import annotations

import json
import re
import statistics
from typing import Dict, List, Optional

from benchmarks.e2e.measure import ROOT, Rep
from benchmarks.e2e.workloads import PLAIN_TWIN

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: per-layer metrics that are host time (or ratios of it) and so differ
#: between identical runs; every other per-layer metric repeats exactly
HOST_TIMED = re.compile(
    r"(\.self_s|\.share|\.us_per_event|\.outside_run_s|\.overhead_ratio)$")


class Declared:
    """The metric and workload declarations of ``BENCHMARK.json``."""

    def __init__(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.workloads: List[str] = [w["name"] for w in spec["workloads"]]
        self.end_to_end: Dict[str, dict] = {
            m["name"]: m for m in spec["end_to_end"]}
        self.per_layer: Dict[str, dict] = {
            m["name"]: m for m in spec["per_layer"]}
        self.metrics = {**self.end_to_end, **self.per_layer}


def check_schema(declared: Dict[str, dict], computed: Dict[str, object]) -> List[str]:
    """Problems that make the printed names and the declaration disagree."""
    problems = [f"bad metric name {n!r}" for n in sorted(computed)
                if not NAME_RE.fullmatch(n)]
    problems += [f"{n} is computed but not declared in BENCHMARK.json"
                 for n in sorted(set(computed) - set(declared))]
    problems += [f"{n} is declared in BENCHMARK.json but not computed"
                 for n in sorted(set(declared) - set(computed))]
    return problems


def median_wall(reps: List[Rep]) -> float:
    return statistics.median(r.wall_s for r in reps)


def end_to_end(reps: List[Rep], cold: dict) -> Dict[str, Optional[float]]:
    return {
        "wall_s": median_wall(reps),
        "setup_s": (statistics.median(cold["setup_s"])
                    if cold["setup_s"] else None),
        "peak_rss_mb": cold["peak_rss_mb"],
        # identical in every rep, which the checker enforces
        "sim_time_s": sum(j.sim_time for j in reps[0].jobs),
    }


def counters(reps: List[Rep]) -> Dict[str, float]:
    """Exact counters of the untraced runs (identical in every rep, which
    the checker enforces, so the first rep speaks for all) and the two
    host-time figures derived from them."""
    jobs = reps[0].jobs

    def total(key: str) -> float:
        return sum(j.extra.get(key, 0.0) for j in jobs)

    events = sum(j.events for j in jobs)
    immediate = total("tagaspi_notif_immediate")
    notif_waits = immediate + total("tagaspi_notif_waits")
    return {
        "sim.events_fired": events,
        "sim.us_per_event": median_wall(reps) / events * 1e6 if events else 0.0,
        "network.messages": total("messages"),
        "network.bytes": total("bytes"),
        "mpi.calls": total("mpi_calls"),
        "mpi.rendezvous_msgs": total("rendezvous_msgs"),
        "mpi.sim_lock_wait_s": total("wait_in_mpi"),
        "gaspi.submitted": total("gaspi_submitted"),
        "gaspi.notifications": total("notifications"),
        "gaspi.sim_queue_wait_s": total("gaspi_queue_wait"),
        "tasking.tasks_completed": total("tasks_completed"),
        "tasking.onready_calls": total("onready_calls"),
        "tampi.iwaits": total("tampi_iwaits"),
        "core.tagaspi_ops": total("tagaspi_ops"),
        # no notification waited for: nothing to be immediate about
        "core.notif_immediate_ratio": (immediate / notif_waits
                                       if notif_waits else 0.0),
        "harness.outside_run_s": statistics.median(
            r.outside_run_s for r in reps),
        "harness.jobs": len(jobs),
    }


def overheads(name: str, timed: Dict[str, List[Rep]],
              traced_wall_s: float) -> Dict[str, float]:
    wall = median_wall(timed[name])
    twin = PLAIN_TWIN.get(name)
    return {
        "trace.overhead_ratio": traced_wall_s / wall,
        # a workload that observes nothing is its own plain twin
        "observe.overhead_ratio": (wall / median_wall(timed[twin])
                                   if twin else 1.0),
    }
