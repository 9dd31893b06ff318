"""A fault report is a pure function of the fault plan and the seed."""

from repro.apps.gauss_seidel import GSParams
from repro.apps.gauss_seidel.runner import _MAINS
from repro.apps.gauss_seidel.variants import make_storages
from repro.faults import FaultPlan, ScriptedFault
from repro.harness import MARENOSTRUM4, JobSpec
from repro.harness.runner import build_job


def _fault_summary() -> str:
    """Gauss–Seidel ``mpi`` with rank 3's first message to rank 4 (the one
    inter-node pair on this layout) dropped and retransmitted."""
    spec = JobSpec(machine=MARENOSTRUM4.with_cores(4), n_nodes=2,
                   variant="mpi", seed=1,
                   faults=FaultPlan(scripted=(
                       ScriptedFault("drop", src_rank=3, dst_rank=4),)))
    params = GSParams(rows=64, cols=64, timesteps=2, block_size=32)
    job = build_job(spec)
    job.run([_MAINS["mpi"](job, params, st)
             for st in make_storages(job, params)])
    return job.fault_report.summary()


def test_same_plan_and_seed_give_the_same_report_in_one_process():
    first = _fault_summary()
    assert "net.scripted: 1" in first
    assert _fault_summary() == first
