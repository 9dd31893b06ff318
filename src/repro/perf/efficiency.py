"""POP-style multiplicative efficiency metrics.

Following the POP (Performance Optimisation and Productivity CoE) model,
parallel efficiency factorizes multiplicatively::

    parallel efficiency = load balance x communication efficiency

computed from the per-rank *useful* time fraction u_r = useful_r / (T * c_r)
where T is the makespan and c_r the cores of rank r:

* communication efficiency = max_r u_r — how much even the best rank loses
  to communication/waiting,
* load balance = mean_r u_r / max_r u_r — how evenly the useful work is
  spread.

Useful time is task CPU time for the hybrid variants (the pollers never
complete, so their busy-waiting is automatically excluded) and the
``proc``/``compute`` spans for the single-threaded MPI baselines. Note
that task CPU includes CPU charged inside communication libraries from
task context (lock holds); the serialization efficiency — the compute
share of the critical path — is reported separately, which is the
adaptation documented in docs/perf.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.perf.critical_path import CriticalPath
from repro.perf.model import PerfModel


@dataclass
class RankEfficiency:
    rank: object
    cores: int
    useful: float
    fraction: float


@dataclass
class Efficiency:
    makespan: float
    per_rank: List[RankEfficiency]
    load_balance: float
    comm_efficiency: float
    parallel_efficiency: float
    #: compute share of the critical path (serialization efficiency)
    serialization_efficiency: float


def _useful_seconds(model: PerfModel, rank: object) -> float:
    rv = model.ranks[rank]
    if model.is_tasking:
        return rv.task_cpu
    # MPI-only: union of compute spans (they never overlap on the single
    # core, but be safe against clamped edges)
    total, cur = 0.0, -1.0
    for t0, b in sorted(zip(rv.compute.t0, rv.compute.t1)):
        a = max(t0, cur)
        if b > a:
            total += b - a
            cur = b
    return total


def compute_efficiency(model: PerfModel, path: CriticalPath,
                       cores_per_rank: Optional[int] = None) -> Efficiency:
    """POP metrics for one traced run.

    ``cores_per_rank`` overrides the core count inferred from the worker
    lanes observed in the trace (an idle worker leaves no trace, so the
    inferred count is a lower bound).
    """
    T = model.makespan
    per_rank: List[RankEfficiency] = []
    for rank in model.sorted_ranks():
        rv = model.ranks[rank]
        if not (rv.lanes or rv.compute or rv.blocked or rv.mpi_calls
                or rv.task_cpu > 0.0):
            continue  # bookkeeping-only bucket (e.g. un-normalized names)
        if cores_per_rank is not None:
            cores = cores_per_rank
        else:
            cores = max(1, len(rv.lanes)) if model.is_tasking else 1
        useful = _useful_seconds(model, rank)
        frac = min(1.0, useful / (T * cores)) if T > 0.0 else 0.0
        per_rank.append(RankEfficiency(rank, cores, useful, frac))
    if per_rank:
        fracs = [r.fraction for r in per_rank]
        comm_eff = max(fracs)
        lb = (sum(fracs) / len(fracs) / comm_eff) if comm_eff > 0.0 else 0.0
    else:
        comm_eff = lb = 0.0
    ser = path.shares().get("compute", 0.0)
    return Efficiency(
        makespan=T,
        per_rank=per_rank,
        load_balance=lb,
        comm_efficiency=comm_eff,
        parallel_efficiency=lb * comm_eff,
        serialization_efficiency=ser,
    )
