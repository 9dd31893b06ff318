"""Benchmark regression gate and run history.

Two jobs, both consuming the ``BENCH_<name>.json`` payloads that
:mod:`repro.bench.suites` produces:

* :func:`compare_payloads` — diff a fresh payload against a committed
  baseline and flag regressions past a per-suite threshold. Ratio metrics
  (``speedup``) are preferred because they are host-independent: both
  sides of the ratio were measured in the same process. Absolute
  throughputs are only comparable across machines after normalizing by a
  host calibration factor (:func:`calibrate`), which both files must
  carry; without it the comparison falls back to raw numbers and says so.
* :func:`history_record` / :func:`append_history` — append one compact
  JSON line per benchmark run to ``BENCH_history.jsonl`` so throughput
  can be tracked over time (and the zero-cost-when-disabled guard in the
  ``analysis`` benchmark has a series to diff against).

This module is the one place in :mod:`repro.bench` that reads wall-clock
time for bookkeeping (timestamps) and shells out (``git rev-parse``);
both are best-effort and never fail the gate.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: regression threshold: fail when fresh/baseline drops below 1 - threshold
DEFAULT_THRESHOLD = 0.15
#: noisier suites get more slack: the sweep benchmark measures a process
#: pool whose win depends on host load and core count, the nic
#: batch-vs-scalar ratio swings with numpy dispatch overhead on the small
#: quick-mode batches, and the gs/analysis/verify suites wall-time one
#: full pass end to end (a single sample, so scheduler jitter lands on it
#: undamped)
SUITE_THRESHOLDS = {"sweep": 0.30, "nic": 0.35, "gs": 0.25,
                    "analysis": 0.25, "verify": 0.25}


def threshold_for(name: str, override: Optional[float] = None) -> float:
    if override is not None:
        return override
    return SUITE_THRESHOLDS.get(name, DEFAULT_THRESHOLD)


# ----------------------------------------------------------------------
# host calibration
# ----------------------------------------------------------------------
def calibrate(reps: int = 3, n: int = 20_000) -> float:
    """Events/sec of a pinned pure-Python engine workload on this host.

    The number itself is meaningless; the *ratio* of two hosts'
    calibrations approximates their relative speed on the interpreter-bound
    work all benchmarks here consist of. Stored into every payload so
    :func:`compare_payloads` can normalize absolute throughputs.
    """
    from repro.sim.engine import Engine
    from repro.sim.events import Event

    best = float("inf")
    for _ in range(reps):
        eng = Engine()
        for i in range(n):
            Event(eng).succeed(delay=(i + 1) * 1e-9)
        t0 = time.perf_counter()
        eng.run()
        best = min(best, time.perf_counter() - t0)
    return n / best


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
@dataclass
class CompareResult:
    """Verdict for one benchmark."""

    name: str
    status: str  # "ok" | "regression" | "skipped"
    metric: str = ""
    fresh: float = 0.0
    baseline: float = 0.0
    ratio: float = 1.0
    threshold: float = DEFAULT_THRESHOLD
    note: str = ""

    def line(self) -> str:
        if self.status == "skipped":
            return f"{self.name:9s} SKIP  {self.note}"
        word = "FAIL" if self.status == "regression" else "ok"
        out = (f"{self.name:9s} {word:4s}  {self.metric}: "
               f"{self.fresh:,.2f} vs {self.baseline:,.2f} "
               f"({self.ratio:.1%} of baseline, floor {1 - self.threshold:.0%})")
        if self.note:
            out += f"  [{self.note}]"
        return out


def compare_payloads(fresh: Dict[str, Any], baseline: Dict[str, Any],
                     threshold: Optional[float] = None) -> CompareResult:
    """Compare one fresh payload against its committed baseline."""
    name = fresh.get("name", "?")
    thr = threshold_for(name, threshold)
    if bool(fresh.get("quick")) != bool(baseline.get("quick")):
        return CompareResult(
            name, "skipped",
            note=(f"quick-mode mismatch (fresh quick={fresh.get('quick')}, "
                  f"baseline quick={baseline.get('quick')})"))

    if "speedup" in fresh and "speedup" in baseline:
        metric, f, b = "speedup", fresh["speedup"], baseline["speedup"]
        note = ""
    else:
        f, b = fresh.get("throughput"), baseline.get("throughput")
        if f is None or b is None:
            return CompareResult(name, "skipped",
                                 note="no comparable metric in payloads")
        fc, bc = fresh.get("calibration"), baseline.get("calibration")
        if fc and bc:
            metric, f, b = "throughput/calib", f / fc, b / bc
            note = ""
        else:
            metric, note = "throughput", "uncalibrated: raw wall-clock compare"
    if b <= 0.0:
        return CompareResult(name, "skipped", metric=metric,
                             note="non-positive baseline metric")
    ratio = f / b
    status = "regression" if ratio < 1.0 - thr else "ok"
    return CompareResult(name, status, metric, f, b, ratio, thr, note)


def load_baseline(name: str, baseline_dir: str) -> Optional[Dict[str, Any]]:
    path = os.path.join(baseline_dir, f"BENCH_{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def compare_against_dir(payloads: List[Dict[str, Any]], baseline_dir: str,
                        threshold: Optional[float] = None
                        ) -> List[CompareResult]:
    """Compare fresh payloads against ``BENCH_<name>.json`` files in
    ``baseline_dir``; missing baselines are skipped, not failed."""
    out: List[CompareResult] = []
    for payload in payloads:
        name = payload.get("name", "?")
        base = load_baseline(name, baseline_dir)
        if base is None:
            out.append(CompareResult(
                name, "skipped",
                note=f"no baseline BENCH_{name}.json in {baseline_dir}"))
        else:
            out.append(compare_payloads(payload, base, threshold))
    return out


# ----------------------------------------------------------------------
# history
# ----------------------------------------------------------------------
def git_rev() -> Optional[str]:
    """Short git revision of the working tree, or None outside a repo."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def history_record(payload: Dict[str, Any],
                   rev: Optional[str] = None) -> Dict[str, Any]:
    """Compact one-line record of one benchmark run."""
    rec = {
        "name": payload.get("name"),
        "unit": payload.get("unit"),
        "throughput": payload.get("throughput"),
        "wall_s": payload.get("wall_s"),
        "quick": bool(payload.get("quick")),
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    if "speedup" in payload:
        rec["speedup"] = payload["speedup"]
    if "calibration" in payload:
        rec["calibration"] = payload["calibration"]
    if rev:
        rec["git_rev"] = rev
    return rec


def append_history(path: str, record: Dict[str, Any]) -> None:
    """Append one JSON line to ``BENCH_history.jsonl`` (created on first
    use)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
