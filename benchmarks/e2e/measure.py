"""The measured unit (one *rep* = every job of a workload, one after the
other) and the timed and cold passes built from it.

Closed loop: one job at a time, one thread, one process. ``Job.run`` is
wrapped only to split a runner's time into "inside the event loop" and
"outside it", and to read ``engine.event_count``.
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.harness import Job

from benchmarks.e2e import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: pinned per job: floats to 1e-12 relative, counters exactly. Events
#: fired are deliberately absent — firing fewer events for the same
#: simulated result must count as a win, not a mismatch.
DIGEST_FLOATS = ("sim_time", "throughput")
DIGEST_COUNTERS = ("messages", "bytes", "notifications", "mpi_calls",
                   "tasks_completed", "gaspi_submitted")

#: further ``VariantResult.extra`` keys the per-layer counters are read from
EXTRA_KEYS = DIGEST_COUNTERS + (
    "rendezvous_msgs", "wait_in_mpi", "gaspi_queue_wait", "onready_calls",
    "tampi_iwaits", "tagaspi_ops", "tagaspi_notif_immediate",
    "tagaspi_notif_waits")


@dataclass
class JobRecord:
    label: str
    wall_s: float = 0.0          # host seconds in run_<app>(spec, params)
    run_s: float = 0.0           # of which inside Job.run
    events: int = 0              # engine.event_count after Job.run
    sim_time: float = 0.0
    throughput: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    def digest(self) -> dict:
        out = {"sim_time": self.sim_time, "throughput": self.throughput}
        for key in DIGEST_COUNTERS:
            out[key] = int(self.extra.get(key, 0))
        return out


@dataclass
class Rep:
    jobs: List[JobRecord]

    @property
    def wall_s(self) -> float:
        return sum(j.wall_s for j in self.jobs)

    @property
    def outside_run_s(self) -> float:
        return sum(j.wall_s - j.run_s for j in self.jobs)


@contextmanager
def probe_job_run(on_entry: Optional[Callable[[], None]] = None):
    """Patch ``Job.run`` to record ``(seconds, events fired)`` per call."""
    calls: list = []
    orig = Job.run

    def run(self, *args, **kwargs):
        if on_entry is not None:
            on_entry()
        t0 = time.perf_counter()
        try:
            return orig(self, *args, **kwargs)
        finally:
            calls.append((time.perf_counter() - t0, self.engine.event_count))

    Job.run = run
    try:
        yield calls
    finally:
        Job.run = orig


def run_rep(name: str, seed: int, quick: bool,
            on_entry: Optional[Callable[[], None]] = None) -> Rep:
    """Execute every job of workload ``name`` once. A job that raises is
    recorded with its error; the rep goes on to the next job."""
    records = []
    for job in workloads.build(name, seed, quick):
        rec = JobRecord(job.label)
        with probe_job_run(on_entry) as calls:
            t0 = time.perf_counter()
            try:
                result = job.runner(job.spec, job.params)
            except Exception as exc:  # one failed operation, not a crash
                rec.error = f"{type(exc).__name__}: {exc}"
                result = None
            rec.wall_s = time.perf_counter() - t0
        rec.run_s = sum(c[0] for c in calls)
        rec.events = sum(c[1] for c in calls)
        if result is not None:
            rec.sim_time = result.sim_time
            rec.throughput = result.throughput
            rec.extra = {k: result.extra[k] for k in EXTRA_KEYS
                         if k in result.extra}
        records.append(rec)
    return Rep(records)


# ----------------------------------------------------------------------
# correctness: golden digests and rep-to-rep identity
# ----------------------------------------------------------------------
def _same(a: dict, b: dict) -> bool:
    return (all(abs(a[k] - b[k]) <= 1e-12 * abs(b[k]) for k in DIGEST_FLOATS)
            and all(a[k] == b[k] for k in DIGEST_COUNTERS))


class Checker:
    """Counts operations (one job execution each) and the failed ones.

    With a golden table (seed 1) every digest must match its pin. Without
    one the check degrades to: every execution of a job agrees with the
    first, and that one moved messages or completed tasks.
    """

    def __init__(self, golden: Optional[dict]):
        self.golden = golden
        self.first: Dict[tuple, dict] = {}
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.failures: List[str] = []

    def check(self, name: str, rep: Rep, what: str) -> None:
        for job in rep.jobs:
            self._book(f"{name}/{job.label} ({what})", name, job.error
                       or self._mismatch(name, job.label, job.digest()))

    def fail(self, name: str, what: str) -> None:
        """An operation that produced no record at all (a dead child)."""
        self._book(name, name, what)

    def _book(self, where: str, name: str, problem: Optional[str]) -> None:
        self.attempted[name] += 1
        if problem:
            self.failed[name] += 1
            self.failures.append(f"{where}: {problem}")

    def _mismatch(self, name: str, label: str, digest: dict) -> Optional[str]:
        first = self.first.setdefault((name, label), digest)
        if not _same(digest, first):
            return f"reps disagree: {digest} != {first}"
        if self.golden is None:
            if digest["messages"] == 0 and digest["tasks_completed"] == 0:
                return "no messages and no tasks"
            return None
        pin = self.golden.get(name, {}).get(label)
        if pin is None:
            return "no golden entry (run --update-golden)"
        if not _same(digest, pin):
            return f"golden mismatch: {digest} != {pin}"
        return None


# ----------------------------------------------------------------------
# timed pass
# ----------------------------------------------------------------------
TIMED_REPS = 7


def timed_pass(names: List[str], seed: int, quick: bool, checker: Checker,
               reps: int, seconds: Optional[float]) -> Dict[str, List[Rep]]:
    """One untimed warm-up, then timed reps round-robin across ``names``
    so a noisy minute lands on a minority of every workload's reps. GC
    stays on as users have it; garbage is collected before each rep.

    Each workload gets ``reps`` reps, or with ``seconds`` as many as fit
    that much measured time (at least 3).
    """
    for name in names:
        checker.check(name, run_rep(name, seed, quick), "warm-up")
    out: Dict[str, List[Rep]] = {name: [] for name in names}

    def done(name: str) -> bool:
        got = out[name]
        if seconds is None:
            return len(got) >= reps
        return len(got) >= 3 and sum(r.wall_s for r in got) >= seconds

    while True:
        todo = [name for name in names if not done(name)]
        if not todo:
            return out
        for name in todo:
            gc.collect()
            rep = run_rep(name, seed, quick)
            checker.check(name, rep, f"timed rep {len(out[name]) + 1}")
            out[name].append(rep)


# ----------------------------------------------------------------------
# cold pass: fresh interpreters
# ----------------------------------------------------------------------
COLD_STARTS = 5


class _FirstRunReached(BaseException):
    """Unwinds an early-exit cold start; not an ``Exception``, so
    :func:`run_rep` does not book it as a failed job."""


def _peak_rss_kb() -> int:
    """Peak resident set of this process, KiB. On Linux ``ru_maxrss``
    survives fork+exec, so a fresh interpreter would report the size of
    the benchmark process that spawned it; ``VmHWM`` belongs to the new
    address space."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cold_child(name: str, seed: int, quick: bool, t0: float,
               full: bool) -> int:
    """Body of one fresh interpreter. Prints one JSON line: ``setup_s``
    (spawn to first ``Job.run`` entry) and, for a ``full`` start, the rep's
    job records and peak RSS. The others stop at that first entry."""
    report: dict = {}

    def on_entry() -> None:
        if "setup_s" not in report:
            report["setup_s"] = time.time() - t0
            if not full:
                raise _FirstRunReached

    try:
        rep = run_rep(name, seed, quick, on_entry)
    except _FirstRunReached:
        rep = None
    if rep is not None:
        report["jobs"] = [vars(j) for j in rep.jobs]
        report["maxrss_kb"] = _peak_rss_kb()
    print(json.dumps(report))
    return 0


def cold_pass(name: str, seed: int, quick: bool, checker: Checker) -> dict:
    """``COLD_STARTS`` fresh interpreters for one workload; the first runs
    a full rep. Returns ``{"setup_s": [...], "peak_rss_mb": float|None}``."""
    setups: List[float] = []
    peak_rss_mb = None
    for start in range(COLD_STARTS):
        full = start == 0
        cmd = [sys.executable, str(HERE / "__main__.py"), "--cold-child", name,
               "--seed", str(seed), "--t0", repr(time.time())]
        cmd += ["--quick"] if quick else []
        cmd += ["--full"] if full else []
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170, check=True)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            setups.append(report["setup_s"])
        except (subprocess.SubprocessError, ValueError, LookupError) as exc:
            checker.fail(name, f"cold start {start + 1}: {exc!r}")
            continue
        if full:
            checker.check(name, Rep([JobRecord(**j) for j in report["jobs"]]),
                          "cold rep")
            peak_rss_mb = report["maxrss_kb"] / 1024.0
    return {"setup_s": setups, "peak_rss_mb": peak_rss_mb}
